// Package pileup implements the pileup counting kernel from Medaka:
// walking the CIGAR of every read aligned to a reference region and
// accumulating per-position, per-strand counts of bases, insertions
// and deletions — the tensor-precursor a long-read neural variant
// caller consumes. Tasks are 100-kilobase reference regions processed
// on independent threads, the paper's inter-task parallel version.
package pileup

import (
	"unsafe"

	"repro/internal/genome"
	"repro/internal/seq2"
	"repro/internal/simio"
)

// RegionSize is the paper's per-task region width in bases.
const RegionSize = 100_000

// Counts holds the pileup for one reference position: base counts per
// strand (0 = forward, 1 = reverse) plus insertion/deletion support.
type Counts struct {
	Base [2][4]uint32
	Ins  [2]uint32
	Del  [2]uint32
}

// Depth returns the total base coverage at the position.
func (c *Counts) Depth() uint32 {
	var d uint32
	for s := 0; s < 2; s++ {
		for b := 0; b < 4; b++ {
			d += c.Base[s][b]
		}
	}
	return d
}

// Region is one counting task: a reference window plus the alignments
// overlapping it.
type Region struct {
	Start, End int
	Alignments []*simio.Alignment
}

// CountRegion walks every alignment's CIGAR and fills the window's
// pileup. It returns the counts (End-Start positions) and the number
// of alignment records processed. The counts are dst's storage,
// cleared, when dst has room for the window — a worker counting region
// after region reuses one buffer — and a fresh slice otherwise; dst
// may be nil.
//
// Match runs — the overwhelming bulk of real CIGARs — take a packed
// fast path: the run is clamped to the window once (no per-base
// window branch), and when the record carries its 2-bit packed form
// (simio.Alignment.Pack; real BAM records are packed natively) and
// the clamped run is at least PackedRunMin bases long, the counters
// are bumped four bases per word chunk — one word load per 32 bases,
// two shifts, a mask and an increment per base, no per-base bounds
// checks. Shorter runs, and every run of an unpacked record, use the
// byte walk on the clamped run. The cutover is pure routing, so
// results are exactly CountRegionScalar's (integer counters, no
// rounding to tolerate), which the differential tests assert on both
// sides of it.
func CountRegion(rg *Region, dst []Counts) ([]Counts, int) {
	var counts []Counts
	if n := rg.End - rg.Start; cap(dst) >= n {
		counts = dst[:n]
		clear(counts)
	} else {
		counts = make([]Counts, n)
	}
	for _, a := range rg.Alignments {
		strand := 0
		if a.Reverse {
			strand = 1
		}
		packed := a.PackedSeq()
		refPos := a.Pos
		readPos := 0
		for _, e := range a.Cigar {
			switch e.Op {
			case simio.CigarMatch:
				// Clamp the run to [Start, End) once.
				lo, hi := refPos, refPos+e.Len
				if lo < rg.Start {
					lo = rg.Start
				}
				if hi > rg.End {
					hi = rg.End
				}
				if lo < hi {
					dst := counts[lo-rg.Start : lo-rg.Start+(hi-lo)]
					q0 := readPos + (lo - refPos)
					if packed != nil && hi-lo >= PackedRunMin {
						countMatchRunPacked(dst, packed, q0, strand)
					} else {
						run := a.Seq[q0 : q0+(hi-lo)]
						for i := range dst {
							dst[i].Base[strand][run[i]&3]++
						}
					}
				}
				refPos += e.Len
				readPos += e.Len
			case simio.CigarIns:
				if refPos >= rg.Start && refPos < rg.End {
					counts[refPos-rg.Start].Ins[strand]++
				}
				readPos += e.Len
			case simio.CigarDel:
				for i := 0; i < e.Len; i++ {
					if refPos >= rg.Start && refPos < rg.End {
						counts[refPos-rg.Start].Del[strand]++
					}
					refPos++
				}
			case simio.CigarSoftClip:
				readPos += e.Len
			}
		}
	}
	return counts, len(rg.Alignments)
}

// PackedRunMin is the shortest clamped match run CountRegion counts
// with the packed word walk; shorter runs take the byte walk. The
// start-up probe this constant replaced always put the packed walk's
// break-even at 32, and a SWAR gather for the runs below it never beat
// the byte walk above noise (docs/PERFORMANCE.md).
const PackedRunMin = 32

// countsStride is the byte distance between consecutive positions'
// counters, used by the packed walk's pointer stride.
const countsStride = unsafe.Sizeof(Counts{})

// countMatchRunPacked accumulates one clamped match run into dst from
// the read's pre-packed 2-bit words, starting at read base q0. The
// first (possibly partial) word is shifted into position, then each
// word chunk bumps four counters at a time. The counter address is a
// strided pointer walk (the lanes.Load4U idiom): dst's strand-selected
// column is indexed by base code directly, so the per-base work is a
// shift, a mask and a memory increment — no per-base bounds checks,
// slice-header math or byte loads. dst is a subslice of the caller's
// counts, and i stays below len(dst), so the pointer never leaves the
// allocation.
func countMatchRunPacked(dst []Counts, words []uint64, q0, strand int) {
	n := len(dst)
	c := unsafe.Pointer(&dst[0].Base[strand][0])
	wi := q0 / seq2.BasesPerWord
	w := words[wi] >> (2 * uint(q0%seq2.BasesPerWord))
	rem := seq2.BasesPerWord - q0%seq2.BasesPerWord // bases left in w
	i := 0
	for i < n {
		nb := rem
		if nb > n-i {
			nb = n - i
		}
		i += nb
		for ; nb >= 4; nb -= 4 {
			*(*uint32)(unsafe.Add(c, uintptr(w&3)*4))++
			*(*uint32)(unsafe.Add(c, countsStride+uintptr(w>>2&3)*4))++
			*(*uint32)(unsafe.Add(c, 2*countsStride+uintptr(w>>4&3)*4))++
			*(*uint32)(unsafe.Add(c, 3*countsStride+uintptr(w>>6&3)*4))++
			c = unsafe.Add(c, 4*countsStride)
			w >>= 8
		}
		for ; nb > 0; nb-- {
			*(*uint32)(unsafe.Add(c, uintptr(w&3)*4))++
			c = unsafe.Add(c, countsStride)
			w >>= 2
		}
		if i < n {
			wi++
			w = words[wi]
			rem = seq2.BasesPerWord
		}
	}
}

// CountRegionScalar is the original per-base CIGAR walker, kept as
// the differential reference for CountRegion's packed fast path.
func CountRegionScalar(rg *Region) ([]Counts, int) {
	counts := make([]Counts, rg.End-rg.Start)
	for _, a := range rg.Alignments {
		strand := 0
		if a.Reverse {
			strand = 1
		}
		refPos := a.Pos
		readPos := 0
		for _, e := range a.Cigar {
			switch e.Op {
			case simio.CigarMatch:
				for i := 0; i < e.Len; i++ {
					if refPos >= rg.Start && refPos < rg.End {
						b := a.Seq[readPos] & 3
						counts[refPos-rg.Start].Base[strand][b]++
					}
					refPos++
					readPos++
				}
			case simio.CigarIns:
				if refPos >= rg.Start && refPos < rg.End {
					counts[refPos-rg.Start].Ins[strand]++
				}
				readPos += e.Len
			case simio.CigarDel:
				for i := 0; i < e.Len; i++ {
					if refPos >= rg.Start && refPos < rg.End {
						counts[refPos-rg.Start].Del[strand]++
					}
					refPos++
				}
			case simio.CigarSoftClip:
				readPos += e.Len
			}
		}
	}
	return counts, len(rg.Alignments)
}

// SplitRegions partitions [0, refLen) into RegionSize windows and
// assigns each alignment to every window it overlaps.
func SplitRegions(refLen int, alignments []*simio.Alignment, regionSize int) []*Region {
	if regionSize <= 0 {
		regionSize = RegionSize
	}
	n := (refLen + regionSize - 1) / regionSize
	regions := make([]*Region, n)
	for i := range regions {
		start := i * regionSize
		end := start + regionSize
		if end > refLen {
			end = refLen
		}
		regions[i] = &Region{Start: start, End: end}
	}
	for _, a := range alignments {
		first := a.Pos / regionSize
		last := (a.End() - 1) / regionSize
		if last >= n {
			last = n - 1
		}
		for r := first; r <= last && r >= 0; r++ {
			regions[r].Alignments = append(regions[r].Alignments, a)
		}
	}
	return regions
}

// MajorityBase returns the most supported base at a position and its
// count, combining strands; ok is false at zero depth.
func (c *Counts) MajorityBase() (base genome.Base, count uint32, ok bool) {
	for b := 0; b < 4; b++ {
		n := c.Base[0][b] + c.Base[1][b]
		if n > count {
			count = n
			base = genome.Base(b)
			ok = true
		}
	}
	return
}
