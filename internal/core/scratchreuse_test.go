package core

import (
	"context"
	"testing"

	"repro/internal/scratch"
)

// abeaBench is abea through the suite's entry, its Small dataset
// prepared.
func abeaBench(t *testing.T) Benchmark {
	t.Helper()
	b, err := ByName("abea")
	if err != nil {
		t.Fatal(err)
	}
	b.Prepare(Small, 11)
	return b
}

// TestScratchPoolWarmRunAllocs: a kernel execution against a warm
// context pool — what the benchmark's repeated passes and a scenario's
// later passes see — must not re-pay the per-worker band and table
// allocations a cold run makes.
// The warm count is fixed bookkeeping (worker shards, task stats),
// so it must come in far below the cold count, which grows with the
// dataset.
func TestScratchPoolWarmRunAllocs(t *testing.T) {
	b := abeaBench(t)
	ctx := scratch.WithPool(context.Background(), scratch.NewPool())
	if _, err := b.RunCtx(ctx, 2); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(5, func() {
		if _, err := b.RunCtx(ctx, 2); err != nil {
			t.Fatal(err)
		}
	})
	cold := testing.AllocsPerRun(5, func() {
		if _, err := b.RunCtx(context.Background(), 2); err != nil {
			t.Fatal(err)
		}
	})
	if warm >= cold/2 {
		t.Fatalf("warm-pool run allocates %v/op vs cold %v/op: pool not reused", warm, cold)
	}
}
