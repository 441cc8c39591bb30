package fmindex

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/genome"
)

// defaultSARate is the suffix-array sampling interval (text positions).
const defaultSARate = 32

// Options tune the index's space/time trade-off: denser SA samples
// cost memory but shorten Locate's LF walk. The Occ checkpoint
// interval is not a knob — one occBlock covers 64 rows by construction.
type Options struct {
	SARate int // SA sampling interval, power of two >= 2
}

// DefaultOptions mirror the fixed rate used throughout the suite.
func DefaultOptions() Options {
	return Options{SARate: defaultSARate}
}

// sentinelCode is the in-BWT code for the terminator character.
const sentinelCode = 4

// MemTracer receives the address stream of index lookups for cache
// simulation. cachesim.Hierarchy satisfies it.
type MemTracer interface {
	Access(addr uint64, size int, write bool)
}

// occBlock is one Occ checkpoint and the 64 BWT rows it covers, in one
// cache line — BWA-MEM2's layout. cnt[b] counts base b in
// bwt[0:64k]; bit i of bits[b] is set iff bwt[64k+i] == b. The
// sentinel row sets no bit, so a rank is cnt plus a popcount with no
// correction.
type occBlock struct {
	cnt  [4]int32
	bits [4]uint64
	_    [16]byte // pad to 64 bytes
}

// Index is an FMD index: the FM-index of genome+reverseComplement(genome),
// supporting bidirectional interval extension for SMEM search.
type Index struct {
	textLen int // length of the indexed text (2x genome)
	saRate  int
	genome  genome.Seq

	// bwt holds the BWT characters one byte each (sentinelCode marks
	// '$'): lf reads it, and the byte-scan reference rank scans it.
	bwt []byte

	// blocks[p>>6] answers every Occ lookup at row p. Derived from bwt
	// (buildBlocks). Sentinel occurrences are derived from the single
	// primary position.
	blocks  []occBlock
	primary int // BWT row whose character is the sentinel

	c [6]int // c[b] = count of characters < b in text+sentinel

	// Sampled suffix array: rows whose SA value is a multiple of saRate
	// are marked, with values stored in rank order.
	saMarked []uint64
	saRank   []int32 // rank checkpoints per 64-bit word
	saVals   []int32

	// Tracer, when non-nil, receives Occ/BWT lookup addresses from the
	// single-threaded entry points (BackwardSearch, Locate, FindSMEMs,
	// ...). It is not synchronized: concurrent searchers must give
	// each worker its own tracer, through FindSMEMsTraced or
	// NewBatchEngine's tr port — the engine never touches this field.
	// Occ-lookup counts (the kernel's data-parallel unit in the paper's
	// Table III) are tallied by the SMEM driver, which knows each
	// operation's lookup cost, so shared state stays read-only on the
	// hot path.
	Tracer MemTracer
}

// Build constructs the FMD index of g. The indexed text is
// g + reverseComplement(g), so patterns and their reverse complements
// can both be located with a single index. It panics on invalid input;
// callers that prefer errors use BuildChecked.
func Build(g genome.Seq) *Index {
	x, err := BuildChecked(g)
	if err != nil {
		panic(err.Error())
	}
	return x
}

// BuildChecked is Build returning an error instead of panicking.
func BuildChecked(g genome.Seq) (*Index, error) {
	return BuildWithOptionsChecked(g, DefaultOptions())
}

// BuildWithOptionsChecked is BuildChecked with explicit sampling
// rates.
func BuildWithOptionsChecked(g genome.Seq, opts Options) (*Index, error) {
	if len(g) == 0 {
		return nil, errors.New("fmindex: empty genome")
	}
	if opts.SARate < 2 || opts.SARate&(opts.SARate-1) != 0 {
		return nil, errors.New("fmindex: SARate must be a power of two >= 2")
	}
	rc := g.ReverseComplement()
	text := make([]byte, 0, 2*len(g))
	text = append(text, g...)
	text = append(text, rc...)
	sa := saisBytes(text, 4)
	return buildFromSA(g, text, sa, opts), nil
}

func buildFromSA(g genome.Seq, text []byte, sa []int32, opts Options) *Index {
	n := len(text)
	idx := &Index{textLen: n, genome: g, saRate: opts.SARate}

	// BWT over text+'$': row for suffix starting at p has BWT char
	// text[p-1]; the row of suffix 0 has the sentinel. The suffix array
	// of text+'$' is [n] followed by sa (sentinel suffix first).
	idx.bwt = make([]byte, n+1)
	idx.bwt[0] = text[n-1] // row of the sentinel suffix "$"
	for i, p := range sa {
		if p == 0 {
			idx.bwt[i+1] = sentinelCode
			idx.primary = i + 1
		} else {
			idx.bwt[i+1] = text[p-1]
		}
	}

	// Character counts.
	var counts [5]int
	counts[4] = 1 // sentinel
	for _, b := range text {
		counts[b]++
	}
	idx.c[0] = 1 // sentinel is the smallest character
	for b := 0; b < 4; b++ {
		idx.c[b+1] = idx.c[b] + counts[b]
	}
	idx.c[5] = idx.c[4] // convenience bound

	idx.buildBlocks()

	// Sampled SA with rank dictionary.
	words := (n + 1 + 63) / 64
	idx.saMarked = make([]uint64, words)
	idx.saRank = make([]int32, words+1)
	type sampled struct{ row, val int32 }
	var samples []sampled
	for i, p := range sa {
		if p%int32(opts.SARate) == 0 {
			row := int32(i + 1)
			idx.saMarked[row/64] |= 1 << uint(row%64)
			samples = append(samples, sampled{row, p})
		}
	}
	// The sentinel row 0 maps to SA value n (the sentinel position).
	idx.saMarked[0] |= 1
	samples = append(samples, sampled{0, int32(n)})
	sort.Slice(samples, func(i, j int) bool { return samples[i].row < samples[j].row })
	idx.saVals = make([]int32, len(samples))
	for i, s := range samples {
		idx.saVals[i] = s.val
	}
	var rank int32
	for w := 0; w < words; w++ {
		idx.saRank[w] = rank
		rank += int32(bits.OnesCount64(idx.saMarked[w]))
	}
	idx.saRank[words] = rank
	return idx
}

// Rows returns the number of BWT rows (textLen+1).
func (x *Index) Rows() int { return x.textLen + 1 }

// buildBlocks (re)builds the Occ blocks from bwt. rows/64+1 blocks, so
// a lookup at p == rows finds a block even when rows is a multiple of
// 64 (that last block then has counts and no bits).
func (x *Index) buildBlocks() {
	rows := len(x.bwt)
	x.blocks = make([]occBlock, rows/64+1)
	var running [4]int32
	for k := range x.blocks {
		blk := &x.blocks[k]
		blk.cnt = running
		lo := k * 64
		for i, b := range x.bwt[lo:min(lo+64, rows)] {
			if b < 4 {
				blk.bits[b] |= 1 << uint(i)
				running[b]++
			}
		}
	}
}

// occAt is the paper's characteristic irregular lookup: it returns
// the block that answers Occ at row p, after reporting the lookup's
// one 64-byte access to tr (nil for none). The sink is passed
// explicitly so concurrent searches route their address streams to
// per-worker tracers instead of racing on x.Tracer.
func (x *Index) occAt(p int, tr MemTracer) *occBlock {
	if tr != nil {
		tr.Access(uint64(p)&^63, 64, false)
	}
	return &x.blocks[p>>6]
}

// rank counts base b in bwt[0:p], for the block occAt(p) returned: the
// checkpoint plus one popcount over the block's rows before p.
func (blk *occBlock) rank(b genome.Base, p int) int {
	return int(blk.cnt[b]) + bits.OnesCount64(blk.bits[b]&(1<<(uint(p)&63)-1))
}

// occ4t returns cumulative counts of the four bases in bwt[0:p],
// reporting the lookup to tr (nil for none).
func (x *Index) occ4t(p int, tr MemTracer) [4]int32 {
	blk := x.occAt(p, tr)
	return [4]int32{int32(blk.rank(0, p)), int32(blk.rank(1, p)), int32(blk.rank(2, p)), int32(blk.rank(3, p))}
}

// occ4Scalar is the byte-scan reference implementation of occ4t, kept
// for differential tests against the popcount path: the block's
// checkpoint counts plus one increment per BWT byte.
func (x *Index) occ4Scalar(p int) [4]int32 {
	counts := x.blocks[p>>6].cnt
	for _, b := range x.bwt[p&^63 : p] {
		if b < 4 {
			counts[b]++
		}
	}
	return counts
}

// occSentinel returns the count of sentinel characters in bwt[0:p]
// (0 or 1, derived from the primary row).
func (x *Index) occSentinel(p int) int32 {
	if p > x.primary {
		return 1
	}
	return 0
}

// BiInterval is a bidirectional SA interval: K is the interval start
// for the pattern, L the start for its reverse complement, S the size.
type BiInterval struct {
	K, L, S int
}

// Root returns the interval of the empty pattern (all rows).
func (x *Index) Root() BiInterval {
	return BiInterval{K: 0, L: 0, S: x.textLen + 1}
}

// extendBackwardT extends pattern P to bP for all four bases at once,
// returning intervals in base order and reporting lookups to tr. This
// is BWA's bwt_extend with is_back=1: the all-four reference
// extendBackward1 is held to.
func (x *Index) extendBackwardT(iv BiInterval, tr MemTracer) [4]BiInterval {
	lo := x.occ4t(iv.K, tr)
	hi := x.occ4t(iv.K+iv.S, tr)
	sentLo := x.occSentinel(iv.K)
	sentHi := x.occSentinel(iv.K + iv.S)

	var out [4]BiInterval
	for b := 0; b < 4; b++ {
		out[b].K = x.c[b] + int(lo[b])
		out[b].S = int(hi[b] - lo[b])
	}
	// The reverse-complement coordinates partition [L, L+S) in
	// complement order: sentinel, then T, G, C, A.
	out[3].L = iv.L + int(sentHi-sentLo)
	out[2].L = out[3].L + out[3].S
	out[1].L = out[2].L + out[2].S
	out[0].L = out[1].L + out[1].S
	return out
}

// extendForwardT extends pattern P to Pb for all four bases. By FMD
// symmetry this is a backward extension on the reverse-complement
// coordinates with complemented bases.
func (x *Index) extendForwardT(iv BiInterval, tr MemTracer) [4]BiInterval {
	swapped := BiInterval{K: iv.L, L: iv.K, S: iv.S}
	ext := x.extendBackwardT(swapped, tr)
	var out [4]BiInterval
	for b := 0; b < 4; b++ {
		e := ext[3-b] // complement
		out[b] = BiInterval{K: e.L, L: e.K, S: e.S}
	}
	return out
}

// extendBackward1 is extendBackwardT(iv, tr)[b] for loops that consume
// one base: the same two Occ lookups, one interval built instead of
// four. L skips the sentinel and every base whose complement sorts
// before b's, i.e. every c > b.
func (x *Index) extendBackward1(iv BiInterval, b genome.Base, tr MemTracer) BiInterval {
	p, q := iv.K, iv.K+iv.S
	lo, hi := x.occAt(p, tr), x.occAt(q, tr)
	var d [4]int
	for c := range d {
		d[c] = hi.rank(genome.Base(c), q) - lo.rank(genome.Base(c), p)
	}
	skip := [4]int{d[1] + d[2] + d[3], d[2] + d[3], d[3], 0}
	b &= 3
	return BiInterval{
		K: x.c[b] + lo.rank(b, p),
		L: iv.L + int(x.occSentinel(q)-x.occSentinel(p)) + skip[b],
		S: d[b],
	}
}

// extendForward1 is extendForwardT(iv, tr)[b], built the same way.
func (x *Index) extendForward1(iv BiInterval, b genome.Base, tr MemTracer) BiInterval {
	e := x.extendBackward1(BiInterval{K: iv.L, L: iv.K, S: iv.S}, 3-(b&3), tr)
	return BiInterval{K: e.L, L: e.K, S: e.S}
}

// BackwardSearch finds the SA interval of pattern via classic backward
// search, returning the interval start and size (size 0 when absent).
func (x *Index) BackwardSearch(pattern genome.Seq) (k, s int) {
	iv := x.Root()
	for i := len(pattern) - 1; i >= 0; i-- {
		iv = x.extendBackward1(iv, pattern[i], x.Tracer)
		if iv.S <= 0 {
			return 0, 0
		}
	}
	return iv.K, iv.S
}

// Locate resolves SA row r to its text position using the sampled
// suffix array and LF walking.
func (x *Index) Locate(r int) int {
	steps := 0
	for {
		if x.saMarked[r/64]&(1<<uint(r%64)) != 0 {
			rank := x.saRank[r/64] + int32(bits.OnesCount64(x.saMarked[r/64]&(1<<uint(r%64)-1)))
			v := int(x.saVals[rank]) + steps
			if v >= x.textLen+1 {
				v -= x.textLen + 1
			}
			return v
		}
		r = x.lf(r)
		steps++
	}
}

// lf is the last-to-first mapping: one Occ lookup, ranking only the
// row's own base.
func (x *Index) lf(r int) int {
	b := x.bwt[r]
	if b == sentinelCode {
		return 0
	}
	return x.c[b] + x.occAt(r, x.Tracer).rank(b, r)
}

// LocateAll returns every text position where pattern occurs, capped at
// limit (<=0 for no cap).
func (x *Index) LocateAll(pattern genome.Seq, limit int) []int {
	k, s := x.BackwardSearch(pattern)
	if s == 0 {
		return nil
	}
	if limit > 0 && s > limit {
		s = limit
	}
	out := make([]int, 0, s)
	for i := 0; i < s; i++ {
		out = append(out, x.Locate(k+i))
	}
	sort.Ints(out)
	return out
}

// String describes the index.
func (x *Index) String() string {
	return fmt.Sprintf("fmindex(text=%d rows=%d checkpoints=%d samples=%d)",
		x.textLen, x.Rows(), len(x.blocks), len(x.saVals))
}
