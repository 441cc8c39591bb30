package dbg

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/genome"
	"repro/internal/parallel"
)

// TestRunKernelDispatchPolicyPure pins that the stealing-vs-chunked
// scheduler choice behind parallel.dispatch is pure policy for the dbg
// region loop: identical aggregates and per-task work distribution
// under both forced policies.
func TestRunKernelDispatchPolicyPure(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var regions []*Region
	for i := 0; i < 10; i++ {
		ref := genome.Random(rng, 150+rng.Intn(350)) // skewed region sizes
		alt := ref.Clone()
		alt[len(alt)/2] = genome.Complement(alt[len(alt)/2])
		reads := tileReads(ref, 80, 12)
		reads = append(reads, tileReads(alt, 80, 12)...)
		regions = append(regions, &Region{Ref: ref, Reads: reads})
	}
	run := func(policy int) KernelResult {
		defer parallel.ForceDispatch(policy)()
		return must(RunKernelCtx(context.Background(), regions, DefaultConfig(), 4))
	}
	chunked := run(parallel.DispatchChunked)
	stealing := run(parallel.DispatchStealing)
	if chunked.Haplotypes != stealing.Haplotypes ||
		chunked.HashLookups != stealing.HashLookups ||
		chunked.CycleRetries != stealing.CycleRetries ||
		chunked.Regions != stealing.Regions {
		t.Errorf("dispatch policy changed results:\nchunked  %+v\nstealing %+v", chunked, stealing)
	}
	if !reflect.DeepEqual(chunked.TaskStats.Summarize(), stealing.TaskStats.Summarize()) {
		t.Errorf("dispatch policy changed task-work distribution:\nchunked  %+v\nstealing %+v",
			chunked.TaskStats.Summarize(), stealing.TaskStats.Summarize())
	}
	if !reflect.DeepEqual(chunked.Counters, stealing.Counters) {
		t.Errorf("dispatch policy changed op counters")
	}
}
