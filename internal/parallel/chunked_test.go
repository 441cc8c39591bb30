package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// forEachChunk drives the shared-counter source at an explicit chunk
// size; the exported ForEachChunkedCtxErr sizes its own with chunkFor.
func forEachChunk(ctx context.Context, n, threads, chunk int, fn func(context.Context, int, int) error) error {
	return run(ctx, n, threads, chunked(chunk), fn)
}

func TestForEachChunkedCtxCoversAllTasks(t *testing.T) {
	for _, chunk := range []int{1, 3, 7, 64} {
		const n = 100
		var hits [n]int32
		err := forEachChunk(context.Background(), n, 4, chunk, plain(func(worker, task int) {
			atomic.AddInt32(&hits[task], 1)
		}))
		if err != nil {
			t.Fatalf("chunk=%d: err = %v", chunk, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("chunk=%d: task %d ran %d times", chunk, i, h)
			}
		}
	}
}

func TestForEachChunkedCtxErrStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var ran int64
	err := forEachChunk(context.Background(), 1000, 2, 10, func(ctx context.Context, worker, task int) error {
		atomic.AddInt64(&ran, 1)
		if task == 55 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if atomic.LoadInt64(&ran) == 1000 {
		t.Fatal("error did not stop dispatch")
	}
}

func TestForEachChunkedCtxErrCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := forEachChunk(ctx, 100, 2, 8, func(ctx context.Context, worker, task int) error {
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachChunkedCtxPanicIsolation(t *testing.T) {
	err := forEachChunk(context.Background(), 100, 2, 10, plain(func(worker, task int) {
		if task == 42 {
			panic("kaboom")
		}
	}))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "kaboom" {
		t.Fatalf("panic value = %v", pe.Value)
	}
	if pe.Task != 42 {
		t.Fatalf("panic task = %d, want 42 (the task, not its chunk)", pe.Task)
	}
}

// The chunked variant must feed the same observability instruments
// ForEachCtxErr records: one latency observation per chunk, worker
// utilization, and a completed-task count equal to the chunk count.
func TestForEachChunkedCtxRecordsMetrics(t *testing.T) {
	o := obs.NewObserver()
	ctx := obs.With(context.Background(), o)
	ctx = obs.WithLabel(ctx, "chunky")
	const n, chunk = 40, 10
	if err := forEachChunk(ctx, n, 2, chunk, plain(func(worker, task int) {})); err != nil {
		t.Fatal(err)
	}
	hist := o.Histogram("parallel.task_latency_ns", "chunky", "ns")
	if got, want := hist.Count(), uint64(n/chunk); got != want {
		t.Fatalf("latency observations = %d, want %d (one per chunk)", got, want)
	}
	if got := o.Counter("parallel.tasks_completed", "chunky").Value(); got != uint64(n/chunk) {
		t.Fatalf("tasks_completed = %d, want %d", got, n/chunk)
	}
}

func TestChunkFor(t *testing.T) {
	if c := chunkFor(10, 4); c != 1 {
		t.Fatalf("small n: chunk = %d, want 1", c)
	}
	if c := chunkFor(10_000, 4); c < 2 || c > 64 {
		t.Fatalf("large n: chunk = %d, want in [2,64]", c)
	}
	if c := chunkFor(1_000_000, 1); c != 64 {
		t.Fatalf("huge n: chunk = %d, want capped at 64", c)
	}
}
