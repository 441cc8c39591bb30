package nnvariant

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/pileup"
	"repro/internal/simio"
)

func digestTasks(seed int64) []*Task {
	rng := rand.New(rand.NewSource(seed))
	ref := genome.Random(rng, 3000)
	alns := simio.SimulateAlignments(rng, ref, 200, simio.AlignSimConfig{
		MeanReadLen: 500, SubRate: 0.02, InsRate: 0.01, DelRate: 0.01,
		MeanQual: 30, RefName: "ref",
	})
	var tasks []*Task
	for _, rg := range pileup.SplitRegions(len(ref), alns, 500) {
		counts, _ := pileup.CountRegion(rg)
		tasks = append(tasks, &Task{Counts: counts, Candidates: SelectCandidates(counts, ref, rg.Start, 8, 0.25)})
	}
	return tasks
}

// TestDigestDifferential: the digest of every prediction is the same
// on the portable and the AVX2 microkernel and at 1, 2 and 4 threads —
// and it is a digest of the predictions, so a different network moves
// it (the run used to compute every Call and drop it).
func TestDigestDifferential(t *testing.T) {
	tasks := digestTasks(8)
	m := NewModel(11, DefaultConfig())
	var want KernelResult
	for _, tier := range []string{"off", "avx2"} {
		restore := cpufeat.ForceForTest(tier)
		if tier == "avx2" && !cpufeat.AVX2() {
			t.Log("no AVX2 on this host: portable tier only")
			restore()
			continue
		}
		for _, threads := range []int{1, 2, 4} {
			got := must(RunKernelCtx(context.Background(), m, tasks, threads))
			if want.Calls == 0 {
				want = got
			}
			if got.Calls == 0 || got.Calls != want.Calls || got.Digest != want.Digest {
				t.Errorf("tier %s, %d threads: calls=%d digest=%016x, want calls=%d digest=%016x",
					tier, threads, got.Calls, got.Digest, want.Calls, want.Digest)
			}
			if got.Counters != want.Counters || !slices.Equal(got.TaskStats.Work(), want.TaskStats.Work()) {
				t.Errorf("tier %s, %d threads: counters or task-order sample sequence moved", tier, threads)
			}
		}
		restore()
	}

	m.L2.Bwd.Wh.Data[5] += 0.25
	if got := must(RunKernelCtx(context.Background(), m, tasks, 2)); got.Digest == want.Digest {
		t.Error("digest did not move when a recurrent weight changed")
	}
}
