// Package bsw implements the banded Smith-Waterman kernel from
// BWA-MEM2: affine-gap dynamic programming over a diagonal band with
// z-drop early termination, in both a scalar form and an
// inter-sequence lock-step batch form that models the AVX2 16-lane
// vectorization. The batch form counts useful versus issued cell
// updates, reproducing the paper's observation that the vectorized
// kernel performs ~2.2x more cell updates than the scalar one because
// lanes pad to the slowest sequence pair.
package bsw

import (
	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/scratch"
	"repro/internal/seq2"
)

// Params are the scoring and banding parameters.
type Params struct {
	Match     int // score for a base match (positive)
	Mismatch  int // penalty for a mismatch (positive)
	GapOpen   int // affine gap open penalty q (positive)
	GapExtend int // affine gap extend penalty e (positive)
	Band      int // half band width w: cells with |i-j| <= w
	ZDrop     int // extension abort threshold; 0 disables z-drop
}

// DefaultParams mirrors BWA-MEM2 defaults.
func DefaultParams() Params {
	return Params{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 1, Band: 100, ZDrop: 100}
}

// Result reports one pairwise alignment.
type Result struct {
	Score       int
	QEnd, TEnd  int    // end coordinates of the best cell (exclusive)
	CellUpdates uint64 // DP cells actually computed
	ZDropped    bool   // extension aborted early
}

const negInf = -(1 << 29)

// Align computes the banded affine-gap extension of query q against
// target t, the seed-extension objective BWA-MEM uses: the alignment
// is anchored at (0,0), the best cell anywhere wins, and rows abort
// once the row maximum falls ZDrop below the best.
//
// Align is the scalar reference implementation: it allocates its DP
// rows per call and compares bases byte by byte. Hot loops use
// AlignInto, the bit-parallel zero-allocation variant, which is
// differential-tested to return identical results.
func Align(q, t genome.Seq, p Params) Result {
	m, n := len(q), len(t)
	res := Result{}
	if m == 0 || n == 0 {
		return res
	}
	w := p.Band
	if w <= 0 {
		w = 1
	}
	// Row-wise DP: H[j], E[j] carry the previous row; F tracks the
	// current row's horizontal gap state.
	H := make([]int, n+1)
	E := make([]int, n+1)
	prevH := make([]int, n+1)

	// Row 0 initialization.
	for j := 0; j <= n; j++ {
		E[j] = negInf
		if j == 0 {
			prevH[j] = 0
		} else if j <= w {
			prevH[j] = -(p.GapOpen + j*p.GapExtend)
		} else {
			prevH[j] = negInf
		}
	}
	best, bestI, bestJ := negInf, 0, 0
	var cells uint64

	for i := 1; i <= m; i++ {
		lo := i - w
		if lo < 1 {
			lo = 1
		}
		hi := i + w
		if hi > n {
			hi = n
		}
		if lo > hi {
			break
		}
		// Left boundary of the row.
		if lo == 1 {
			H[0] = -(p.GapOpen + i*p.GapExtend)
		} else {
			H[lo-1] = negInf
		}
		F := negInf
		rowMax := negInf
		rowMaxJ := lo
		for j := lo; j <= hi; j++ {
			cells++
			s := p.Match
			if q[i-1] != t[j-1] {
				s = -p.Mismatch
			}
			diag := prevH[j-1]
			h := diag + s
			// E: gap in query (vertical move), carried from prev row.
			e := prevH[j] - p.GapOpen - p.GapExtend
			if E[j]-p.GapExtend > e {
				e = E[j] - p.GapExtend
			}
			// F: gap in target (horizontal move) within this row.
			f := H[j-1] - p.GapOpen - p.GapExtend
			if F-p.GapExtend > f {
				f = F - p.GapExtend
			}
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			H[j] = h
			E[j] = e
			F = f
			if h > rowMax {
				rowMax = h
				rowMaxJ = j
			}
		}
		// Out-of-band cells on the right are unreachable.
		if hi < n {
			H[hi+1] = negInf
			E[hi+1] = negInf
		}
		if rowMax > best {
			best = rowMax
			bestI = i
			bestJ = rowMaxJ
		}
		if p.ZDrop > 0 && rowMax < best-p.ZDrop {
			res.ZDropped = true
			break
		}
		prevH, H = H, prevH
	}
	res.Score = best
	res.QEnd = bestI
	res.TEnd = bestJ
	res.CellUpdates = cells
	return res
}

// negInf32 is the int32 sentinel of the optimized core. Scores fit
// comfortably in 32 bits (the original kernel runs in 8/16-bit SIMD
// lanes); halving the row width halves the DP memory traffic.
const negInf32 = int32(-(1 << 29))

// AlignInto is Align drawing every buffer from a reusable scratch
// arena: zero heap allocations per call in steady state, int32 DP rows
// (half the memory traffic of the int rows Align uses), and SWAR
// match masks — the target is 2-bit packed once per call and compared
// against each of the four bases once per call, 32 target bases in a
// handful of word ops (seq2.MatchMask), so each row picks its query
// base's mask and the inner loop replaces its byte load + compare
// with one bit test.
//
// AlignInto claims the arena: it calls a.Reset, so buffers handed out
// before the call are invalidated. A nil arena allocates a temporary
// one (useful for one-off calls; task loops must pass a per-worker
// arena to get the zero-allocation path). Results are bit-identical to
// Align on every input.
//
// On hosts with the AVX2 tier (cpufeat.AVX2), alignments
// whose scoring passes wideEligible's int16 range proof route to
// alignWide, the 16-cells-per-step assembly band kernel (wide.go);
// results stay bit-identical either way.
func AlignInto(q, t genome.Seq, p Params, a *scratch.Arena) Result {
	m, n := len(q), len(t)
	res := Result{}
	if m == 0 || n == 0 {
		return res
	}
	if bswHaveWideAsm && cpufeat.AVX2() && wideEligible(p, m, n) {
		return alignWide(q, t, p, a, true)
	}
	if a == nil {
		a = scratch.New()
	}
	a.Reset()
	w := p.Band
	if w <= 0 {
		w = 1
	}
	H := a.Int32s(n + 1)
	E := a.Int32s(n + 1)
	prevH := a.Int32s(n + 1)
	// One packed comparison sweep per base, once per pair: bit
	// 2*((j-1)%32) of masks[b][(j-1)/32] is set iff t[j-1] == b, so a
	// row replaces its per-cell byte compare with its base's mask.
	pt := seq2.PackInto(a.Uint64s(seq2.Words(n)), t)
	var masks [4][]uint64
	for b := range masks {
		masks[b] = seq2.MatchMask(a.Uint64s(seq2.Words(n)), pt, genome.Base(b))
	}

	gapO := int32(p.GapOpen)
	ge := int32(p.GapExtend)
	oe := gapO + ge
	match := int32(p.Match)
	mism := int32(-p.Mismatch)

	// Row 0 initialization (same recurrence as Align).
	for j := 0; j <= n; j++ {
		E[j] = negInf32
		if j == 0 {
			prevH[j] = 0
		} else if j <= w {
			prevH[j] = -(gapO + int32(j)*ge)
		} else {
			prevH[j] = negInf32
		}
	}
	best := negInf32
	bestI, bestJ := 0, 0
	zdrop := int32(p.ZDrop)
	var cells uint64

	for i := 1; i <= m; i++ {
		lo := i - w
		if lo < 1 {
			lo = 1
		}
		hi := i + w
		if hi > n {
			hi = n
		}
		if lo > hi {
			break
		}
		// Left boundary of the row.
		if lo == 1 {
			H[0] = -(gapO + int32(i)*ge)
		} else {
			H[lo-1] = negInf32
		}
		mask := masks[q[i-1]&3]
		F := negInf32
		rowMax := negInf32
		rowMaxJ := lo
		// hLeft and diag carry H[j-1] and prevH[j-1] in registers so
		// the inner loop performs two loads (prevH[j], E[j]) instead of
		// four.
		hLeft := H[lo-1]
		diag := prevH[lo-1]
		cells += uint64(hi - lo + 1)
		// Bounds-check elimination hints for the three row arrays.
		_, _, _ = H[hi], E[hi], prevH[hi]
		// Process the row in word-aligned blocks of up to 32 columns:
		// the 32 match bits for a block stay in one register (mw) and
		// cost an AND plus a shift per cell, instead of a load and a
		// computed shift.
		for j := lo; j <= hi; {
			off := uint(j-1) % 32
			mw := mask[uint(j-1)/32] >> (2 * off)
			blockEnd := j + int(32-off) - 1
			if blockEnd > hi {
				blockEnd = hi
			}
			for ; j <= blockEnd; j++ {
				ph := prevH[j]
				s := mism
				if mw&1 != 0 {
					s = match
				}
				mw >>= 2
				h := diag + s
				e := ph - oe
				if x := E[j] - ge; x > e {
					e = x
				}
				f := hLeft - oe
				if x := F - ge; x > f {
					f = x
				}
				if e > h {
					h = e
				}
				if f > h {
					h = f
				}
				H[j] = h
				E[j] = e
				F = f
				hLeft = h
				diag = ph
				if h > rowMax {
					rowMax = h
					rowMaxJ = j
				}
			}
		}
		// Out-of-band cells on the right are unreachable.
		if hi < n {
			H[hi+1] = negInf32
			E[hi+1] = negInf32
		}
		if rowMax > best {
			best = rowMax
			bestI = i
			bestJ = rowMaxJ
		}
		if zdrop > 0 && rowMax < best-zdrop {
			res.ZDropped = true
			break
		}
		prevH, H = H, prevH
	}
	res.Score = int(best)
	res.QEnd = bestI
	res.TEnd = bestJ
	res.CellUpdates = cells
	return res
}

// AlignFull computes the unbanded extension with z-drop off — the
// exhaustive baseline the banded kernel approximates.
func AlignFull(q, t genome.Seq, p Params) Result {
	full := p
	full.Band = len(q) + len(t)
	full.ZDrop = 0
	return Align(q, t, full)
}

// Pair is one alignment task.
type Pair struct {
	Query, Target genome.Seq
}

// BatchStats reports the efficiency of a lock-step batch execution.
type BatchStats struct {
	UsefulCells uint64 // cells a scalar implementation would compute
	IssuedCells uint64 // lane-slots issued by the lock-step batch
}

// Overhead is issued/useful — the paper's 2.2x metric.
func (s BatchStats) Overhead() float64 {
	if s.UsefulCells == 0 {
		return 1
	}
	return float64(s.IssuedCells) / float64(s.UsefulCells)
}

// AlignBatch aligns pairs in lock-step groups of `lanes` (modelling
// inter-sequence SIMD): within a group, every row issues a full vector
// of cell updates sized by the band, and the group runs until its
// slowest live lane finishes. Pairs should be pre-sorted by length, as
// BWA-MEM2 does; even then, z-drop and length spread leave idle lanes.
func AlignBatch(pairs []Pair, p Params, lanes int) ([]Result, BatchStats) {
	if lanes <= 0 {
		lanes = 16
	}
	results := make([]Result, len(pairs))
	var stats BatchStats
	arena := scratch.New() // lanes share one arena: pairs run sequentially
	for start := 0; start < len(pairs); start += lanes {
		end := start + lanes
		if end > len(pairs) {
			end = len(pairs)
		}
		group := pairs[start:end]
		maxRows := 0
		alive := make([]bool, len(group))
		for gi, pr := range group {
			results[start+gi] = AlignInto(pr.Query, pr.Target, p, arena)
			stats.UsefulCells += results[start+gi].CellUpdates
			alive[gi] = true
			if len(pr.Query) > maxRows {
				maxRows = len(pr.Query)
			}
		}
		// Lock-step issue model: each row of the group issues
		// lanes x bandwidth cell slots until every lane has finished its
		// own (possibly z-dropped) row count.
		rowsLeft := make([]int, len(group))
		for gi, pr := range group {
			rows := len(pr.Query)
			if results[start+gi].ZDropped {
				// The lane stopped at its abort row; recover the row it
				// reached from its useful cell count and band geometry.
				rows = rowsForCells(results[start+gi].CellUpdates, len(pr.Query), len(pr.Target), p.Band)
			}
			rowsLeft[gi] = rows
		}
		groupRows := 0
		for _, r := range rowsLeft {
			if r > groupRows {
				groupRows = r
			}
		}
		bandWidth := 2*p.Band + 1
		stats.IssuedCells += uint64(groupRows) * uint64(lanes) * uint64(bandWidth)
	}
	return results, stats
}

// rowsForCells inverts the banded cell count to the number of rows the
// scalar alignment processed before aborting.
func rowsForCells(cells uint64, m, n, w int) int {
	var acc uint64
	for i := 1; i <= m; i++ {
		lo := i - w
		if lo < 1 {
			lo = 1
		}
		hi := i + w
		if hi > n {
			hi = n
		}
		if lo > hi {
			return i - 1
		}
		acc += uint64(hi - lo + 1)
		if acc >= cells {
			return i
		}
	}
	return m
}
