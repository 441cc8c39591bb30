package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/resilience"
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
// context pool — what the second resilience attempt sees — must not
// re-pay the per-worker band and table allocations a cold run makes.
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

// TestResilienceRetryReusesPool proves the plumbing end to end: a
// pool installed outside resilience.Run hands the retry attempt the
// exact arenas the failed attempt grew.
func TestResilienceRetryReusesPool(t *testing.T) {
	b := abeaBench(t)
	pool := scratch.NewPool()
	ctx := scratch.WithPool(context.Background(), pool)
	p := resilience.Default()
	p.Sleep = func(context.Context, time.Duration) error { return nil }
	attempt := 0
	var firstArena *scratch.Arena
	err := resilience.Run(ctx, "abea", p, func(actx context.Context) error {
		attempt++
		if _, err := b.RunCtx(actx, 2); err != nil {
			return err
		}
		if attempt == 1 {
			firstArena = scratch.PoolFrom(actx).Worker(0)
			return errors.New("transient failure after a full warm-up run")
		}
		if scratch.PoolFrom(actx).Worker(0) != firstArena {
			t.Error("retry attempt drew a different worker-0 arena")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry should have succeeded: %v", err)
	}
	if attempt != 2 {
		t.Fatalf("attempts = %d, want 2", attempt)
	}
}
