// Package phmm implements the Pairwise Hidden Markov Model kernel from
// GATK HaplotypeCaller: the forward-algorithm likelihood of a read
// given a candidate haplotype, computed with quality-dependent priors
// in single-precision floating point with a double-precision fallback
// when the 32-bit computation underflows — exactly the precision
// strategy the paper describes for phmm.
//
// # Numerics contract
//
// The float32 pass starts from 2^120 (initialScale32) and flushes every
// M/I/D state value below 2^-93 (flushFloor32) to +0 right after it is
// computed, before it is stored or fed to the D chain; a pair whose
// float32 sum is not above 1e-28 (underflowThreshold32, GATK's value)
// is redone in float64 from 1e280 with no floor.
//
// Why 2^-93: off-target DP mass decays through float32's subnormal
// range (2^-126…2^-149) in the tail rows of every read longer than
// ~64 bases, and each subnormal multiply or add takes a microcode
// assist — several-fold per cell on both the lane kernel and the
// scalar pass (docs/PERFORMANCE.md, "Subnormals", has the table).
// The smallest factor a state value is ever multiplied by is
// priorMismatch·tIM ≥ 2^-32.7 (Phred 93, the last entry of qualToErr;
// tMI = 2^-14.9, tII = 0.1 and the match-side priors are all larger),
// so a surviving value (≥ 2^-93) times any factor is ≥ 2^-126 and every
// sum is ≥ its operands: no subnormal is produced or consumed for any
// valid input, with no FP-mode change. Hardware FTZ/DAZ (what Intel GKL
// uses) is unavailable to pure Go, and x86 and ARM disagree on tininess
// detection at the 2^-126 edge; a defined floor keeps every
// implementation of the recurrence on the same flush points.
//
// Effect on answers: the flushed forward mass is at most 3·m·n·2^-93
// (≈1e-23 for m=100, n=400; all path weights are ≤ 1) against sums of
// 1e25–1e33 for a read that derives from its haplotype, so likelihoods
// and BestHap are unchanged. A pair whose float32 sum sits within that
// margin of 1e-28 may take the float64 redo where it did not before —
// the more accurate answer — so Fallbacks can rise on junk pairs.
//
// Implementations: forwardInto (scalar, one pair) and the lane-batched
// pass of lanes.go (eight haplotypes per read; portable rowQuad, AVX2
// row_amd64.s). The lane implementations are bit-identical to each
// other on every SIMD tier and architecture (same operations, same
// rounding order, same flush points); against the scalar pass they
// agree within laneTolerance, because the lane M update reassociates
// (derivation at that constant).
package phmm

import (
	"context"
	"math"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/genome"
	"repro/internal/lanes"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/scratch"
)

// Transition probabilities follow GATK's defaults: gap-open quality 45
// for insertions and deletions, gap-continuation penalty 10.
var (
	gapOpen = math.Pow(10, -4.5) // P(match -> ins) = P(match -> del)
	gapExt  = math.Pow(10, -1)   // P(ins -> ins) = P(del -> del)

	tMM = 1 - 2*gapOpen
	tMI = gapOpen
	tMD = gapOpen
	tIM = 1 - gapExt
	tII = gapExt
	tDM = 1 - gapExt
	tDD = gapExt
)

// qualToErr[q] is the base error probability for Phred quality q.
var qualToErr [94]float64

func init() {
	for q := range qualToErr {
		qualToErr[q] = math.Pow(10, -float64(q)/10)
	}
}

// Float is the precision parameter of the forward computation.
type Float interface {
	~float32 | ~float64
}

// initialScale32 rescales the float32 computation away from the
// subnormal range, mirroring GATK's INITIAL_CONDITION.
const initialScale32 = float64(1<<62) * float64(1<<58) // 2^120

// underflowThreshold32 marks results too small to trust in float32.
const underflowThreshold32 = 1e-28

// flushFloor32 is the float32 pass's flush floor (package comment).
const flushFloor32 = 0x1p-93

// scale64 is the float64 fallback pass's initial mass.
const scale64 = 1e280

var (
	log10Scale32 = math.Log10(initialScale32)
	log10Scale64 = math.Log10(scale64)
)

// forwardInto runs the PairHMM forward algorithm in precision F and
// returns the raw (scaled) likelihood sum plus the number of DP cells
// computed. State values below floor are flushed to +0 as they are
// computed (flushFloor32 for the float32 pass, 0 — never — for
// float64). It computes into six caller-owned DP rows, each grown in
// place and reused across calls. The cur rows are fully overwritten
// every row; the prev rows are reinitialized here, so stale contents
// never leak into the recurrence.
func forwardInto[F Float](read genome.Seq, qual []byte, hap genome.Seq, scale float64, floor F, rows *[6][]F) (F, uint64) {
	m := len(read)
	n := len(hap)
	if m == 0 || n == 0 {
		return 0, 0
	}
	// Row-wise DP over the read; columns are haplotype positions.
	for k := range rows {
		rows[k] = scratch.Grow(rows[k], n+1)
	}
	curM, curI, curD := rows[0], rows[1], rows[2]
	prevM, prevI, prevD := rows[3], rows[4], rows[5]
	clear(prevM)
	clear(prevI)

	// Free start anywhere on the haplotype: D row 0 carries the scaled
	// initial mass.
	init := F(scale / float64(n))
	for j := 0; j <= n; j++ {
		prevD[j] = init
	}

	tmm := F(tMM)
	tmi := F(tMI)
	tmd := F(tMD)
	tim := F(tIM)
	tii := F(tII)
	tdm := F(tDM)
	tdd := F(tDD)

	var cells uint64
	for i := 1; i <= m; i++ {
		err := qualToErr[qual[i-1]]
		priorMatch := F(1 - err)
		priorMismatch := F(err / 3)
		rb := read[i-1]
		curM[0] = 0
		curI[0] = 0
		curD[0] = 0
		for j := 1; j <= n; j++ {
			cells++
			prior := priorMismatch
			if hap[j-1] == rb {
				prior = priorMatch
			}
			mj := prior * (tmm*prevM[j-1] + tim*prevI[j-1] + tdm*prevD[j-1])
			if mj < floor {
				mj = 0
			}
			ij := tmi*prevM[j] + tii*prevI[j]
			if ij < floor {
				ij = 0
			}
			dj := tmd*curM[j-1] + tdd*curD[j-1]
			if dj < floor {
				dj = 0
			}
			curM[j], curI[j], curD[j] = mj, ij, dj
		}
		prevM, curM = curM, prevM
		prevI, curI = curI, prevI
		prevD, curD = curD, prevD
	}
	// Free end on the haplotype: sum M and I across the last row.
	var sum F
	for j := 1; j <= n; j++ {
		sum += prevM[j] + prevI[j]
	}
	return sum, cells
}

// Result reports one read-haplotype likelihood evaluation.
type Result struct {
	Log10Likelihood float64
	UsedDouble      bool   // float32 underflowed; recomputed in float64
	CellUpdates     uint64 // includes any fallback recomputation
}

// Likelihood computes log10 P(read | haplotype), attempting float32
// first and falling back to float64 on underflow.
func Likelihood(read genome.Seq, qual []byte, hap genome.Seq) Result {
	return LikelihoodInto(read, qual, hap, nil)
}

// log10From32 converts a scaled float32 forward sum to a log10
// likelihood; ok is false when the sum is too small (or not finite)
// to trust and the pair needs the float64 redo.
func log10From32(sum float32) (ll float64, ok bool) {
	v := float64(sum)
	if v > underflowThreshold32 && !math.IsInf(v, 0) {
		return math.Log10(v) - log10Scale32, true
	}
	return 0, false
}

// fallback64 is the float64 redo of one pair: no flush floor.
func fallback64(read genome.Seq, qual []byte, hap genome.Seq, rows *[6][]float64) (ll float64, cells uint64) {
	sum, cells := forwardInto(read, qual, hap, scale64, 0, rows)
	return math.Log10(sum) - log10Scale64, cells
}

// Scratch holds the grow-only working storage for pooled phmm
// evaluation: the six DP rows for each precision plus the per-region
// output slices. One Scratch per worker; not safe for concurrent use.
// Slices inside a RegionResult produced by EvaluateRegionInto remain
// valid only until the next call with the same Scratch.
type Scratch struct {
	rows32      [6][]float32
	rows64      [6][]float64
	bestHap     []int
	likelihoods []float64

	// Lane-batched state (lanes.go): grouped haplotype layouts, the
	// per-lane packed haplotype words, and the lane DP rows — flat
	// float32 with a stride of lanes.Width per column, advanced two
	// read rows at a time (see forwardLanes).
	groups   []laneGroup
	packs    [lanes.Width][]uint64
	laneRows [6][]float32
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// LikelihoodInto is Likelihood using s's reusable DP rows; a nil s
// allocates fresh ones. Results do not depend on s.
func LikelihoodInto(read genome.Seq, qual []byte, hap genome.Seq, s *Scratch) Result {
	if len(read) == 0 || len(hap) == 0 {
		return Result{Log10Likelihood: math.Inf(-1)}
	}
	if s == nil {
		s = &Scratch{}
	}
	sum32, cells := forwardInto(read, qual, hap, initialScale32, flushFloor32, &s.rows32)
	if ll, ok := log10From32(sum32); ok {
		return Result{Log10Likelihood: ll, CellUpdates: cells}
	}
	ll, cells64 := fallback64(read, qual, hap, &s.rows64)
	return Result{Log10Likelihood: ll, UsedDouble: true, CellUpdates: cells + cells64}
}

// Region is one independent task: the reads aligned to a genome window
// and the candidate haplotypes assembled for it. The kernel evaluates
// all |R| x |H| pairs.
type Region struct {
	Reads []genome.Seq
	Quals [][]byte
	Haps  []genome.Seq
}

// RegionResult carries per-region outputs.
type RegionResult struct {
	// BestHap[r] is the index of the maximum-likelihood haplotype for
	// read r.
	BestHap []int
	// Likelihoods[r*|H|+h] is log10 P(read r | hap h).
	Likelihoods []float64
	CellUpdates uint64
	Fallbacks   int
}

// EvaluateRegion runs all pairwise alignments of one region.
func EvaluateRegion(rg *Region) RegionResult {
	return EvaluateRegionScalarInto(rg, nil)
}

// EvaluateRegionInto is EvaluateRegion computing into s's reusable
// storage; the returned slices are owned by s and valid until the next
// call. A nil s allocates fresh output slices. Regions with at least
// eight haplotypes take the lane-batched forward pass (lanes.go):
// results match the scalar reference within laneTolerance per
// likelihood with exact cell counters, and are bit-identical across
// SIMD tiers and architectures (package comment, numerics contract).
func EvaluateRegionInto(rg *Region, s *Scratch) RegionResult {
	if s != nil && len(rg.Haps) >= lanes.Width {
		return evaluateRegionLanes(rg, s)
	}
	return EvaluateRegionScalarInto(rg, s)
}

// EvaluateRegionScalarInto is the scalar reference path: one forward
// pass per (read, haplotype) pair. It backs the lane path's
// differential tests and serves as the baseline side of the
// phmm/lanes benchmark pair.
func EvaluateRegionScalarInto(rg *Region, s *Scratch) RegionResult {
	nr, nh := len(rg.Reads), len(rg.Haps)
	var res RegionResult
	if s != nil {
		s.bestHap = scratch.Grow(s.bestHap, nr)
		s.likelihoods = scratch.Grow(s.likelihoods, nr*nh)
		res.BestHap = s.bestHap
		res.Likelihoods = s.likelihoods
		clear(res.BestHap)
	} else {
		res.BestHap = make([]int, nr)
		res.Likelihoods = make([]float64, nr*nh)
	}
	for r := 0; r < nr; r++ {
		best := math.Inf(-1)
		for h := 0; h < nh; h++ {
			lr := LikelihoodInto(rg.Reads[r], rg.Quals[r], rg.Haps[h], s)
			res.Likelihoods[r*nh+h] = lr.Log10Likelihood
			res.CellUpdates += lr.CellUpdates
			if lr.UsedDouble {
				res.Fallbacks++
			}
			if lr.Log10Likelihood > best {
				best = lr.Log10Likelihood
				res.BestHap[r] = h
			}
		}
	}
	return res
}

// KernelResult aggregates a phmm benchmark execution.
type KernelResult struct {
	Regions     int
	Pairs       int
	CellUpdates uint64
	Fallbacks   int
	TaskStats   *perf.TaskStats
	Counters    perf.Counters
}

// span is one dispatch unit of RunKernelCtx: a contiguous read range
// of one region (the whole region unless planSpans cut it), plus the
// slot its worker reports into.
type span struct {
	region int    // index into regions
	first  bool   // carries the region's fault trip-point
	sub    Region // rg.Reads[lo:hi], rg.Quals[lo:hi], all of rg.Haps
	est    uint64 // Σ read lengths × Σ haplotype lengths: the float32 cells

	cells     uint64 // written by the one worker that ran the span
	fallbacks int
}

// splitFactor sets the heavy-region cut: with more than one thread, a
// region above total/(splitFactor·threads) cells is cut into read
// ranges of about that size, so the largest task a worker can be left
// holding is a quarter of its fair share.
const splitFactor = 4

// planSpans lays regions out as dispatch units. With one thread that
// is one span per region in region order. With more, regions whose
// estimated cells exceed total/(splitFactor·threads) are cut into
// near-equal contiguous read ranges — reads are independent rows of
// Likelihoods/BestHap, and CellUpdates/Fallbacks are integer sums, so
// the pieces reduce to the unsplit result bit for bit — and the spans
// are ordered heaviest first.
func planSpans(regions []*Region, threads int) []span {
	est := make([]uint64, len(regions))
	var total uint64
	for i, rg := range regions {
		var readLen, hapLen uint64
		for _, r := range rg.Reads {
			readLen += uint64(len(r))
		}
		for _, h := range rg.Haps {
			hapLen += uint64(len(h))
		}
		est[i] = readLen * hapLen
		total += est[i]
	}
	limit := total/uint64(splitFactor*threads) + 1
	spans := make([]span, 0, len(regions)+splitFactor*threads)
	for i, rg := range regions {
		nr := len(rg.Reads)
		pieces := 1
		if threads > 1 && est[i] > limit {
			pieces = int(min(uint64(nr), (est[i]+limit-1)/limit))
		}
		// Piece p covers reads [p*nr/pieces, (p+1)*nr/pieces).
		for p := 0; p < pieces; p++ {
			lo, hi := p*nr/pieces, (p+1)*nr/pieces
			spans = append(spans, span{region: i, first: p == 0, est: est[i] / uint64(pieces),
				sub: Region{Reads: rg.Reads[lo:hi], Quals: rg.Quals[lo:hi], Haps: rg.Haps}})
		}
	}
	if threads > 1 {
		sort.SliceStable(spans, func(a, b int) bool { return spans[a].est > spans[b].est })
	}
	return spans
}

// RunKernelCtx evaluates all regions with dynamic scheduling; a region
// is one task, matching the paper's genome-region parallelism
// granularity for phmm, unless planSpans cut it. It runs under
// cooperative cancellation (checked before every span) with a fault
// trip-point per region.
func RunKernelCtx(ctx context.Context, regions []*Region, threads int) (KernelResult, error) {
	if threads <= 0 {
		threads = 1
	}
	pool := scratch.PoolFrom(ctx) // nil pool hands out fresh scratch
	scratches := make([]*Scratch, threads)
	for i := range scratches {
		scratches[i] = pool.WorkerState(i, func() any { return NewScratch() }).(*Scratch)
	}
	spans := planSpans(regions, threads)
	// Active-region cost skews with read depth and haplotype count, so
	// the scheduler is the probed parallel.dispatch choice (shared
	// counter vs work stealing); results are policy-independent.
	err := parallel.ForEachDispatchErr(ctx, len(spans), threads, func(tctx context.Context, w, i int) error {
		sp := &spans[i]
		if sp.first {
			if err := faultinject.Point(tctx); err != nil {
				return err
			}
		}
		r := EvaluateRegionInto(&sp.sub, scratches[w])
		sp.cells, sp.fallbacks = r.CellUpdates, r.Fallbacks
		return nil
	})
	if err != nil {
		return KernelResult{}, err
	}
	// One TaskStats sample per region, in region order, whatever the
	// split: the paper's Figure 4 is about regions, not dispatch units.
	res := KernelResult{Regions: len(regions), TaskStats: perf.NewTaskStats("cell updates")}
	regionCells := make([]uint64, len(regions))
	for i := range spans {
		regionCells[spans[i].region] += spans[i].cells
		res.Fallbacks += spans[i].fallbacks
	}
	for i, rg := range regions {
		res.Pairs += len(rg.Reads) * len(rg.Haps)
		res.CellUpdates += regionCells[i]
		res.TaskStats.Observe(float64(regionCells[i]))
	}
	// phmm is the suite's floating-point kernel: each cell is ~9 FP
	// multiply-adds, vectorized in the original.
	res.Counters.Add(perf.FloatOp, res.CellUpdates*3)
	res.Counters.Add(perf.VecOp, res.CellUpdates*6)
	res.Counters.Add(perf.Load, res.CellUpdates*2)
	res.Counters.Add(perf.Store, res.CellUpdates)
	res.Counters.Add(perf.Branch, res.CellUpdates/8)
	return res, nil
}
