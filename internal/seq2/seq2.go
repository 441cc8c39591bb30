// Package seq2 provides 2-bit packed nucleotide sequences and the
// SWAR (SIMD-within-a-register) primitives the suite's optimized hot
// paths are built on: packed-word base comparison (32 bases per
// uint64 compare, used by bsw's row match masks and poa's dense match
// bits).
//
// The byte-per-base genome.Seq representation stays the suite's
// interchange type; Packed is the hot-path layout, exactly the
// bit-packing BWA-MEM2 and Flye use so 32 base comparisons collapse
// into a handful of word ops. All packed operations are differential-
// tested against their scalar equivalents: they change cost, never
// answers.
package seq2

import "repro/internal/genome"

// loBits is the low bit of every 2-bit SWAR lane.
const loBits = 0x5555555555555555

// BasesPerWord is the packing density: 32 bases per uint64.
const BasesPerWord = 32

// Words returns the number of uint64 words needed to pack n bases.
func Words(n int) int { return (n + BasesPerWord - 1) / BasesPerWord }

// Packed is a 2-bit-per-base sequence: base i occupies bits
// [2*(i%32), 2*(i%32)+1] of words[i/32] (LSB-first). Trailing lanes of
// the last word are zero (base A), which every ranged operation masks
// off.
type Packed struct {
	words []uint64
	n     int
}

// Pack encodes s into a freshly allocated Packed.
func Pack(s genome.Seq) Packed {
	return PackInto(make([]uint64, Words(len(s))), s)
}

// PackInto encodes s into buf (reusing its backing array when large
// enough, so arena callers pack with zero allocations) and returns the
// Packed view. buf may be nil.
func PackInto(buf []uint64, s genome.Seq) Packed {
	nw := Words(len(s))
	if cap(buf) < nw {
		buf = make([]uint64, nw)
	}
	buf = buf[:nw]
	for w := 0; w < nw; w++ {
		var v uint64
		base := w * BasesPerWord
		end := base + BasesPerWord
		if end > len(s) {
			end = len(s)
		}
		for i := end - 1; i >= base; i-- {
			v = v<<2 | uint64(s[i]&3)
		}
		buf[w] = v
	}
	return Packed{words: buf, n: len(s)}
}

// FromWords wraps pre-packed words as a Packed of n bases, for callers
// that keep their own word buffers (poa and phmm repack into grow-only
// scratch). words must hold Words(n) entries; lanes at positions >= n
// are ignored by ranged operations but should be zero so Get beyond n
// never surprises.
func FromWords(words []uint64, n int) Packed {
	return Packed{words: words[:Words(n)], n: n}
}

// Len returns the number of bases.
func (p Packed) Len() int { return p.n }

// WordsSlice exposes the raw packed words (read-only by convention).
func (p Packed) WordsSlice() []uint64 { return p.words }

// Get returns base i.
func (p Packed) Get(i int) genome.Base {
	return genome.Base(p.words[i/BasesPerWord] >> (2 * (uint(i) % BasesPerWord)) & 3)
}

// broadcast2 replicates a 2-bit base code into all 32 lanes.
func broadcast2(b genome.Base) uint64 {
	return uint64(b&3) * loBits // b * 0x5555... replicates b into every lane
}

// eqLanes returns a mask with the LOW bit of every 2-bit lane set where
// the lane of w equals the lane of pattern (0x5555-spaced match mask).
func eqLanes(w, pattern uint64) uint64 {
	x := w ^ pattern
	return ^(x | x>>1) & loBits
}

// MatchMask writes, for every base of p, whether it equals b, as a
// 0x5555-spaced bitmask: bit 2*(i%32) of dst[i/32] is set iff base i
// == b. dst must have len >= Words(p.Len()); trailing lanes beyond
// p.Len() are left as whatever the padding compares to and must not be
// read. Returns dst for chaining.
//
// This is the SWAR packed-word comparison bsw uses to turn its per-cell
// "q[i-1] != t[j-1]" byte compare into one precomputed bit test per
// cell: one call compares 32 target bases in ~6 word ops.
func MatchMask(dst []uint64, p Packed, b genome.Base) []uint64 {
	pat := broadcast2(b)
	_ = dst[len(p.words)-1]
	for w, v := range p.words {
		dst[w] = eqLanes(v, pat)
	}
	return dst
}

// BitsWords returns the number of uint64 words a dense 1-bit-per-base
// mask of n bases occupies (64 bases per word).
func BitsWords(n int) int { return (n + 63) / 64 }

// compressPairs gathers the 32 even-position bits of a 0x5555-spaced
// mask into the low 32 bits, preserving order — the SWAR pair
// compress (one half of a Morton decode).
func compressPairs(x uint64) uint64 {
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	return x
}

// MatchMaskBits writes, for every base of p, whether it equals b, as
// a DENSE bitmask: bit i%64 of dst[i/64] is set iff base i == b, and
// bits at positions >= p.Len() are zero. dst must have len >=
// BitsWords(p.Len()). Returns dst for chaining.
//
// This is the SWAR byte-compare mask the poa lane kernel consumes:
// each packed word pair compresses to one 64-base word, so an 8-column
// DP group reads its match octet with one shift — no per-cell base
// compare, no branch. Built from the same eqLanes compare MatchMask
// uses, plus a pair compress.
func MatchMaskBits(dst []uint64, p Packed, b genome.Base) []uint64 {
	if p.n == 0 {
		return dst
	}
	pat := broadcast2(b)
	nw := BitsWords(p.n)
	_ = dst[nw-1]
	for w := 0; w < nw; w++ {
		lo := compressPairs(eqLanes(p.words[2*w], pat))
		var hi uint64
		if 2*w+1 < len(p.words) {
			hi = compressPairs(eqLanes(p.words[2*w+1], pat))
		}
		dst[w] = lo | hi<<32
	}
	// Zero the padding lanes of the last word (the 2-bit padding packs
	// as base A, which would otherwise leak spurious A-matches).
	if tail := p.n % 64; tail != 0 {
		dst[nw-1] &= 1<<uint(tail) - 1
	}
	return dst
}
