package phmm

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// stragglerRegions is the suite dataset's shape in miniature: 29 light
// regions (scalar and lane path both present, some junk reads so
// Fallbacks is non-zero) and one region holding most of the cells.
func stragglerRegions(rng *rand.Rand, heavyReads int) []*Region {
	regions := make([]*Region, 30)
	for i := range regions {
		reads, haps, hapMin := 3+rng.Intn(4), 3+rng.Intn(10), 100
		if i == 17 {
			reads, haps, hapMin = heavyReads, 16, 300
		}
		regions[i] = laneRegionSized(rng, reads, haps, hapMin, 40, 40)
	}
	return regions
}

// regionDigest hashes one region's answers: every likelihood's bits,
// then every best haplotype.
func regionDigest(lik []float64, best []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range lik {
		put(math.Float64bits(v))
	}
	for _, v := range best {
		put(uint64(v))
	}
	return h.Sum64()
}

// TestRunKernelSplitInvariance pins that cutting the heavy region
// along reads is invisible in the result: every aggregate and the
// per-region work distribution equal the one-thread run for every
// thread count under both schedulers, and one fault trip-point is
// evaluated per region however many spans it became.
func TestRunKernelSplitInvariance(t *testing.T) {
	regions := stragglerRegions(rand.New(rand.NewSource(31)), 80)
	want := must(RunKernelCtx(context.Background(), regions, 1))
	sum := want.TaskStats.Summarize()
	if sum.MaxToMean < 20 {
		t.Fatalf("dataset has no straggler: max/mean = %.1f, want >= 20", sum.MaxToMean)
	}
	if want.Fallbacks == 0 {
		t.Fatal("dataset never exercised the float64 fallback")
	}
	plan, err := faultinject.Parse("error:*:0", 1) // evaluated, never fires
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	defer faultinject.Disarm()
	runs := uint64(0)
	for _, policy := range []int{parallel.DispatchChunked, parallel.DispatchStealing} {
		restore := parallel.ForceDispatch(policy)
		for _, threads := range []int{1, 2, 3, 4, 8} {
			got := must(RunKernelCtx(context.Background(), regions, threads))
			runs++
			if got.Regions != want.Regions || got.Pairs != want.Pairs ||
				got.CellUpdates != want.CellUpdates || got.Fallbacks != want.Fallbacks ||
				!reflect.DeepEqual(got.Counters, want.Counters) {
				t.Errorf("policy %d threads %d: result changed:\ngot  %+v\nwant %+v", policy, threads, got, want)
			}
			if got.TaskStats.Count() != len(regions) {
				t.Errorf("policy %d threads %d: %d TaskStats samples, want one per region (%d)",
					policy, threads, got.TaskStats.Count(), len(regions))
			}
			if !reflect.DeepEqual(got.TaskStats.Summarize(), sum) {
				t.Errorf("policy %d threads %d: task-work distribution changed:\ngot  %+v\nwant %+v",
					policy, threads, got.TaskStats.Summarize(), sum)
			}
			if evals := plan.Stats()[0].Evals; evals != runs*uint64(len(regions)) {
				t.Errorf("policy %d threads %d: %d trip-point evaluations after %d runs, want %d per run",
					policy, threads, evals, runs, len(regions))
			}
		}
		restore()
	}
}

// TestPlanSpansReassemble evaluates the spans of a split plan one by
// one and reassembles each region's Likelihoods and BestHap from them:
// the digest must equal the unsplit EvaluateRegionInto, and the spans
// must tile every region's reads exactly once, in order.
func TestPlanSpansReassemble(t *testing.T) {
	regions := stragglerRegions(rand.New(rand.NewSource(32)), 60)
	s := NewScratch()
	want := make([]uint64, len(regions))
	for i, rg := range regions {
		r := EvaluateRegionInto(rg, s)
		want[i] = regionDigest(r.Likelihoods, r.BestHap)
	}
	if got := planSpans(regions, 1); len(got) != len(regions) {
		t.Fatalf("one thread planned %d spans for %d regions", len(got), len(regions))
	}
	for _, threads := range []int{2, 3, 8} {
		spans := planSpans(regions, threads)
		if len(spans) < len(regions)+splitFactor {
			t.Fatalf("threads %d: %d spans for %d regions: the straggler was not cut", threads, len(spans), len(regions))
		}
		for i := 1; i < len(spans); i++ {
			if spans[i].est > spans[i-1].est {
				t.Fatalf("threads %d: span %d (est %d) after lighter span (est %d)", threads, i, spans[i].est, spans[i-1].est)
			}
		}
		lik := make([][]float64, len(regions))
		best := make([][]int, len(regions))
		firsts := make([]int, len(regions))
		// Reassemble in read order: a region's spans are found by the
		// identity of their first read.
		for ri, rg := range regions {
			for next := 0; next < len(rg.Reads); {
				found := false
				for si := range spans {
					sp := &spans[si]
					if sp.region != ri || len(sp.sub.Reads) == 0 || &sp.sub.Reads[0] != &rg.Reads[next] {
						continue
					}
					if sp.first != (next == 0) {
						t.Fatalf("threads %d region %d: span at read %d has first=%v", threads, ri, next, sp.first)
					}
					r := EvaluateRegionInto(&sp.sub, s)
					lik[ri] = append(lik[ri], r.Likelihoods...)
					best[ri] = append(best[ri], r.BestHap...)
					next += len(sp.sub.Reads)
					found = true
					break
				}
				if !found {
					t.Fatalf("threads %d region %d: no span starts at read %d", threads, ri, next)
				}
			}
		}
		for si := range spans {
			if spans[si].first {
				firsts[spans[si].region]++
			}
		}
		for ri := range regions {
			if firsts[ri] != 1 {
				t.Errorf("threads %d region %d: %d spans carry the trip-point, want 1", threads, ri, firsts[ri])
			}
			if got := regionDigest(lik[ri], best[ri]); got != want[ri] {
				t.Errorf("threads %d region %d: digest assembled from spans %016x, unsplit %016x", threads, ri, got, want[ri])
			}
		}
	}
}

// TestRunKernelSplitCancel cancels the context while the heavy region
// is in flight: its first span is parked in the trip-point's delay, a
// second worker is chewing through its other spans. The run must
// return the context's error with most spans never dispatched.
func TestRunKernelSplitCancel(t *testing.T) {
	regions := stragglerRegions(rand.New(rand.NewSource(33)), 1200)
	const threads = 2
	defer parallel.ForceDispatch(parallel.DispatchChunked)()
	nSpans := len(planSpans(regions, threads))
	plan, err := faultinject.Parse("delay:*:1h", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	defer faultinject.Disarm()
	o := obs.NewObserver()
	ctx, cancel := context.WithCancel(obs.With(context.Background(), o))
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunKernelCtx(ctx, regions, threads)
		done <- err
	}()
	// The heaviest span is dispatched first and is the heavy region's
	// first: once its trip-point has been evaluated the region is in
	// flight.
	for plan.Stats()[0].Evals == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunKernelCtx = %v, want context.Canceled", err)
	}
	// The parked span counts as run; beyond it each worker finishes at
	// most the span it held and one it may have pulled between the
	// cancel and its next check.
	if ran := o.Counter("parallel.tasks_completed", "").Value(); ran < 1 || ran > 2*threads {
		t.Fatalf("%d of %d spans were dispatched, want 1..%d", ran, nSpans, 2*threads)
	}
}
