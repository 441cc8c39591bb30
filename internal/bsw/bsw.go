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
	"context"

	"repro/internal/cpufeat"
	"repro/internal/faultinject"
	"repro/internal/genome"
	"repro/internal/lanes"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/scratch"
	"repro/internal/seq2"
)

// Mode selects the alignment objective.
type Mode int

// Alignment modes.
const (
	// Local is classic Smith-Waterman: best-scoring local alignment.
	Local Mode = iota
	// Extension anchors the alignment at (0,0) and extends, aborting
	// via z-drop — the seed-extension mode BWA-MEM uses.
	Extension
)

// Params are the scoring and banding parameters.
type Params struct {
	Match     int // score for a base match (positive)
	Mismatch  int // penalty for a mismatch (positive)
	GapOpen   int // affine gap open penalty q (positive)
	GapExtend int // affine gap extend penalty e (positive)
	Band      int // half band width w: cells with |i-j| <= w
	ZDrop     int // extension abort threshold (Extension mode)
	Mode      Mode
}

// DefaultParams mirrors BWA-MEM2 defaults.
func DefaultParams() Params {
	return Params{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 1, Band: 100, ZDrop: 100, Mode: Extension}
}

// Result reports one pairwise alignment.
type Result struct {
	Score       int
	QEnd, TEnd  int    // end coordinates of the best cell (exclusive)
	CellUpdates uint64 // DP cells actually computed
	ZDropped    bool   // extension aborted early
}

const negInf = -(1 << 29)

// Align computes the banded affine-gap alignment of query q against
// target t. In Local mode scores clamp at zero and the best cell
// anywhere wins; in Extension mode the alignment is anchored at (0,0)
// and rows abort once the row maximum falls ZDrop below the best.
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
		if p.Mode == Local {
			prevH[j] = 0
		} else {
			if j == 0 {
				prevH[j] = 0
			} else if j <= w {
				prevH[j] = -(p.GapOpen + j*p.GapExtend)
			} else {
				prevH[j] = negInf
			}
		}
	}
	best, bestI, bestJ := 0, 0, 0
	if p.Mode == Extension {
		best = negInf
	}
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
		if p.Mode == Local {
			H[lo-1] = 0
		} else if lo == 1 {
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
			if p.Mode == Local && h < 0 {
				h = 0
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
		if p.Mode == Extension && p.ZDrop > 0 && rowMax < best-p.ZDrop {
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
// (half the memory traffic of the int rows Align uses), and a SWAR
// match mask — the target is 2-bit packed once per call and each row
// compares 32 target bases against the row's query base in a handful
// of word ops (seq2.MatchMask), so the inner loop replaces its byte
// load + compare with one bit test.
//
// AlignInto claims the arena: it calls a.Reset, so buffers handed out
// before the call are invalidated. A nil arena allocates a temporary
// one (useful for one-off calls; task loops must pass a per-worker
// arena to get the zero-allocation path). Results are bit-identical to
// Align on every input.
//
// On hosts with a 16-wide SIMD tier (cpufeat.Wide16), alignments
// whose scoring passes wideEligible's int16 range proof and whose DP
// area clears the measured lanes.WideMinWork floor route to
// alignWide, the 16-cells-per-step assembly band kernel (wide.go);
// results stay bit-identical either way.
func AlignInto(q, t genome.Seq, p Params, a *scratch.Arena) Result {
	m, n := len(q), len(t)
	res := Result{}
	if m == 0 || n == 0 {
		return res
	}
	if bswHaveWideAsm && cpufeat.Wide16() && wideEligible(p, m, n) &&
		wideArea(p, m, n) >= lanes.WideMinWork.Get() {
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
	pt := seq2.PackInto(a.Uint64s(seq2.Words(n)), t)
	mask := a.Uint64s(seq2.Words(n))

	gapO := int32(p.GapOpen)
	ge := int32(p.GapExtend)
	oe := gapO + ge
	match := int32(p.Match)
	mism := int32(-p.Mismatch)
	local := p.Mode == Local

	// Row 0 initialization (same recurrence as Align).
	for j := 0; j <= n; j++ {
		E[j] = negInf32
		if local {
			prevH[j] = 0
		} else {
			if j == 0 {
				prevH[j] = 0
			} else if j <= w {
				prevH[j] = -(gapO + int32(j)*ge)
			} else {
				prevH[j] = negInf32
			}
		}
	}
	best := int32(0)
	bestI, bestJ := 0, 0
	if !local {
		best = negInf32
	}
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
		if local {
			H[lo-1] = 0
		} else if lo == 1 {
			H[0] = -(gapO + int32(i)*ge)
		} else {
			H[lo-1] = negInf32
		}
		// One packed comparison sweep replaces the per-cell byte
		// compare: bit 2*((j-1)%32) of mask[(j-1)/32] is set iff
		// t[j-1] == q[i-1].
		seq2.MatchMask(mask, pt, q[i-1])
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
				if local && h < 0 {
					h = 0
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
		if !local && zdrop > 0 && rowMax < best-zdrop {
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

// AlignFull computes the unbanded local Smith-Waterman alignment — the
// exhaustive baseline the banded kernel approximates.
func AlignFull(q, t genome.Seq, p Params) Result {
	full := p
	full.Band = len(q) + len(t)
	full.Mode = Local
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

// KernelResult aggregates a bsw benchmark execution.
type KernelResult struct {
	Pairs       int
	TotalScore  int64
	CellUpdates uint64
	TaskStats   *perf.TaskStats
	Counters    perf.Counters
}

// RunKernelCtx aligns all pairs with dynamic scheduling across
// threads, under cooperative cancellation and with a fault trip-point
// per pair.
func RunKernelCtx(ctx context.Context, pairs []Pair, p Params, threads int) (KernelResult, error) {
	if threads <= 0 {
		threads = 1
	}
	pool := scratch.PoolFrom(ctx) // nil pool hands out fresh arenas
	arenas := make([]*scratch.Arena, threads)
	for i := range arenas {
		arenas[i] = pool.Worker(i)
	}
	results := make([]Result, len(pairs))
	// Alignments are fine-grained (sub-millisecond); chunked dispatch
	// amortizes the shared-counter fetch across a few pairs per pull.
	err := parallel.ForEachChunkedCtxErr(ctx, len(pairs), threads, func(tctx context.Context, w, i int) error {
		if err := faultinject.Point(tctx); err != nil {
			return err
		}
		results[i] = AlignInto(pairs[i].Query, pairs[i].Target, p, arenas[w])
		return nil
	})
	if err != nil {
		return KernelResult{}, err
	}
	res := KernelResult{Pairs: len(pairs), TaskStats: perf.NewTaskStats("cell updates")}
	for i := range results {
		res.TotalScore += int64(results[i].Score)
		res.CellUpdates += results[i].CellUpdates
		res.TaskStats.Observe(float64(results[i].CellUpdates))
	}
	// bsw is compute-bound with heavy vector usage in the original:
	// each cell is a handful of max/blend ops plus two row-array
	// touches.
	res.Counters.Add(perf.VecOp, res.CellUpdates*6)
	res.Counters.Add(perf.IntALU, res.CellUpdates*2)
	res.Counters.Add(perf.Load, res.CellUpdates*2)
	res.Counters.Add(perf.Store, res.CellUpdates)
	res.Counters.Add(perf.Branch, res.CellUpdates/4)
	return res, nil
}
