package phmm

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/genome"
	"repro/internal/parallel"
)

// TestRunKernelDispatchPolicyPure pins that routing the phmm
// active-region loop through parallel.dispatch is pure policy:
// aggregates and per-task work distribution are identical whether the
// shared-counter or the work-stealing scheduler ran it.
func TestRunKernelDispatchPolicyPure(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	regions := make([]*Region, 10)
	for i := range regions {
		hap := genome.Random(rng, 80+rng.Intn(240)) // skewed region sizes
		var rg Region
		rg.Haps = []genome.Seq{hap, hap.ReverseComplement()}
		for r := 0; r < 2+rng.Intn(5); r++ {
			start := rng.Intn(len(hap) - 40)
			rg.Reads = append(rg.Reads, hap[start:start+40])
			rg.Quals = append(rg.Quals, uniformQual(40, 30))
		}
		regions[i] = &rg
	}
	run := func(policy int) KernelResult {
		defer parallel.ForceDispatch(policy)()
		return must(RunKernelCtx(context.Background(), regions, 4))
	}
	chunked := run(parallel.DispatchChunked)
	stealing := run(parallel.DispatchStealing)
	if chunked.CellUpdates != stealing.CellUpdates ||
		chunked.Pairs != stealing.Pairs ||
		chunked.Fallbacks != stealing.Fallbacks ||
		chunked.Regions != stealing.Regions {
		t.Errorf("dispatch policy changed results:\nchunked  %+v\nstealing %+v", chunked, stealing)
	}
	if !reflect.DeepEqual(chunked.TaskStats.Summarize(), stealing.TaskStats.Summarize()) {
		t.Errorf("dispatch policy changed task-work distribution:\nchunked  %+v\nstealing %+v",
			chunked.TaskStats.Summarize(), stealing.TaskStats.Summarize())
	}
}
