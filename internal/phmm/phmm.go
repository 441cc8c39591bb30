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
// is redone in float64 from 1e280 with no floor. Every product in the
// recurrence is rounded on its own: an explicit conversion wraps each
// one, which the Go spec forbids the compiler to fuse into an FMA (a
// no-op on amd64; on arm64 it keeps every implementation on one
// rounding order).
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
// Implementations: forwardInto (scalar, one pair) and two lane-batched
// passes. The haplotype lanes of lanes.go run one read against a full
// group of eight haplotypes (portable rowQuad, AVX2 row_amd64.s); they
// reassociate the M update, so they agree with the scalar pass within
// laneTolerance (derivation at that constant). The read lanes of
// readlanes.go run up to eight reads against one haplotype — every
// haplotype outside a full group — in forwardInto's own expression
// order (portable readRowQuad, AVX2 readrow_amd64.s), so each lane is
// bit-identical to the scalar pass. The same read lanes in float64,
// four reads per sweep (readrow64_amd64.s), are EvaluateRegionInto's
// float64 redo for the underflowing pairs of both passes, bit-identical
// to the scalar redo. Each lane pass is bit-identical across SIMD tiers
// and architectures (same operations, same rounding order, same flush
// points).
package phmm

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/genome"
	"repro/internal/lanes"
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
			mj := F(prior * (F(tmm*prevM[j-1]) + F(tim*prevI[j-1]) + F(tdm*prevD[j-1])))
			if mj < floor {
				mj = 0
			}
			ij := F(tmi*prevM[j]) + F(tii*prevI[j])
			if ij < floor {
				ij = 0
			}
			dj := F(tmd*curM[j-1]) + F(tdd*curD[j-1])
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

// fallback64 is the float64 redo of one pair: no flush floor. It is
// LikelihoodInto's; settleFallbacks computes the same bits four pairs
// at a time in float64 read lanes.
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
	rows64      [6][]float64 // forwardInto's, or the float64 read lanes'
	bestHap     []int
	likelihoods []float64

	// Lane-batched state: grouped haplotype layouts and the per-lane
	// packed haplotype words (lanes.go), one read group's prior tables
	// per precision (readlanes.go), the float32 lane DP rows both
	// passes share — flat, with a stride of lanes.Width per column —
	// and the pairs awaiting the float64 redo.
	groups   []laneGroup
	packs    [lanes.Width][]uint64
	reads    readGroup[float32]
	reads64  readGroup[float64]
	laneRows [6][]float32
	redo     []pairRef
}

// pairRef names one (haplotype, read) pair of a region.
type pairRef struct{ h, r int32 }

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// LikelihoodInto computes log10 P(read | haplotype), attempting
// float32 first and falling back to float64 on underflow. It uses s's
// reusable DP rows; a nil s allocates fresh ones. Results do not depend
// on s.
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

// Region is the reads aligned to a genome window and the candidate
// haplotypes assembled for it. The kernel evaluates all |R| x |H|
// pairs. Reads are independent rows of the answer, so a read range of
// a region, with all its haplotypes, evaluates to those rows bit for
// bit.
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

// EvaluateRegionInto runs all pairwise alignments of one region into
// s's reusable storage; the returned slices are owned by s and valid
// until the next call. A nil s allocates fresh storage. Every float32 forward pass is
// lane-batched. Full groups of eight haplotypes run the haplotype
// lanes (lanes.go): their likelihoods match the scalar reference
// within laneTolerance. Every other haplotype — all of them in a
// region with fewer than eight, the |H| mod 8 tail otherwise — runs
// the read lanes (readlanes.go), bit-identical to the scalar
// reference. Pairs whose float32 sum underflows, from either pass, are
// redone together afterwards in float64 read lanes (settleFallbacks),
// bit-identical to the scalar float64 redo. Cell counters are exact,
// and all results are bit-identical across SIMD tiers and
// architectures (package comment, numerics contract).
func EvaluateRegionInto(rg *Region, s *Scratch) RegionResult {
	if s == nil {
		s = NewScratch()
	}
	nr, nh := len(rg.Reads), len(rg.Haps)
	s.bestHap = scratch.Grow(s.bestHap, nr)
	s.likelihoods = scratch.Grow(s.likelihoods, nr*nh)
	res := RegionResult{BestHap: s.bestHap, Likelihoods: s.likelihoods}
	s.redo = s.redo[:0]
	tail := evaluateHapLanes(rg, s, &res)
	evaluateReadLanes(rg, tail, s, &res)
	settleFallbacks(rg, s, &res)
	// BestHap: the first maximum in ascending h, as the scalar path's
	// running strict > picks it.
	for r := 0; r < nr; r++ {
		best, bestH := math.Inf(-1), 0
		for h, ll := range res.Likelihoods[r*nh : (r+1)*nh] {
			if ll > best {
				best, bestH = ll, h
			}
		}
		res.BestHap[r] = bestH
	}
	return res
}

// settlePair records pair (r, h)'s float32 forward sum in res as
// LikelihoodInto settles it: its likelihood and cells, or on float32
// underflow the cells of both passes and a place in s.redo, whose
// float64 likelihood settleFallbacks fills in. An empty read or
// haplotype is -Inf with no cells.
func settlePair(rg *Region, r, h int, sum float32, s *Scratch, res *RegionResult) {
	read, hap := rg.Reads[r], rg.Haps[h]
	ll := math.Inf(-1)
	if len(read) > 0 && len(hap) > 0 {
		cells := uint64(len(read)) * uint64(len(hap))
		res.CellUpdates += cells
		var ok bool
		if ll, ok = log10From32(sum); !ok {
			s.redo = append(s.redo, pairRef{h: int32(h), r: int32(r)})
			res.Fallbacks++
			res.CellUpdates += cells
		}
	}
	res.Likelihoods[r*len(rg.Haps)+h] = ll
}

// settleFallbacks runs the float64 redo of every pair settlePair queued
// in s.redo and writes their likelihoods into res. The pairs are sorted
// by (haplotype, read) and each haplotype's reads run four to a float64
// read-lane sweep, each lane bit-identical to fallback64 on its pair.
func settleFallbacks(rg *Region, s *Scratch, res *RegionResult) {
	slices.SortFunc(s.redo, func(a, b pairRef) int {
		return cmp.Or(cmp.Compare(a.h, b.h), cmp.Compare(a.r, b.r))
	})
	var reads [4]genome.Seq // laneCount[float64]()
	var quals [4][]byte
	for i := 0; i < len(s.redo); {
		h := s.redo[i].h
		k := i + 1
		for k < min(i+len(reads), len(s.redo)) && s.redo[k].h == h {
			k++
		}
		group := s.redo[i:k]
		for l, p := range group {
			reads[l], quals[l] = rg.Reads[p.r], rg.Quals[p.r]
		}
		prepareReads(reads[:len(group)], quals[:len(group)], &s.reads64)
		sums := forwardReads(&s.reads64, rg.Haps[h], scale64, &s.rows64)
		for l, p := range group {
			res.Likelihoods[int(p.r)*len(rg.Haps)+int(h)] = math.Log10(sums[l]) - log10Scale64
		}
		i = k
	}
}

// EvaluateRegionScalarInto is the scalar reference path: one forward
// pass per (read, haplotype) pair. It backs the lane passes'
// differential tests and is the scalar side of
// BenchmarkEvaluateRegionLanes.
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
