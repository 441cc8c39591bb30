package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllTasksOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 8} {
		n := 1000
		counts := make([]int32, n)
		if err := runPlain(context.Background(), n, threads, func(worker, task int) {
			atomic.AddInt32(&counts[task], 1)
		}); err != nil {
			t.Fatalf("threads=%d err=%v", threads, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("threads=%d task %d ran %d times", threads, i, c)
			}
		}
	}
}

func TestForEachZeroTasks(t *testing.T) {
	ran := false
	if err := runPlain(context.Background(), 0, 4, func(int, int) { ran = true }); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("fn ran for n=0")
	}
}

func TestForEachDefaultThreads(t *testing.T) {
	var total int64
	if err := runPlain(context.Background(), 100, 0, func(worker, task int) { atomic.AddInt64(&total, int64(task)) }); err != nil {
		t.Fatal(err)
	}
	if total != 4950 {
		t.Errorf("sum = %d, want 4950", total)
	}
}

func TestForEachWorkerIDsInRange(t *testing.T) {
	threads := 3
	if err := runPlain(context.Background(), 200, threads, func(worker, task int) {
		if worker < 0 || worker >= threads {
			t.Errorf("worker id %d out of range", worker)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// plain adapts an error-free task body to the schedulers' task
// signature; runPlain and stealPlain run one through the two exported
// error-returning schedulers.
func plain(fn func(worker, task int)) func(context.Context, int, int) error {
	return func(_ context.Context, worker, task int) error {
		fn(worker, task)
		return nil
	}
}

func runPlain(ctx context.Context, n, threads int, fn func(worker, task int)) error {
	return ForEachCtxErr(ctx, n, threads, plain(fn))
}

func stealPlain(ctx context.Context, n, threads int, fn func(worker, task int)) error {
	return ForEachStealingErr(ctx, n, threads, plain(fn))
}

// A task count the chunk size does not divide: the short last chunk
// must still run, and nothing past n.
func TestForEachChunked(t *testing.T) {
	n := 103
	counts := make([]int32, n)
	err := forEachChunk(context.Background(), n, 4, 10, plain(func(worker, task int) {
		atomic.AddInt32(&counts[task], 1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("task %d ran %d times", i, c)
		}
	}
}

func TestForEachCtxCoversAllTasksOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 8} {
		n := 500
		counts := make([]int32, n)
		err := runPlain(context.Background(), n, threads, func(worker, task int) {
			atomic.AddInt32(&counts[task], 1)
		})
		if err != nil {
			t.Fatalf("threads=%d err=%v", threads, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("threads=%d task %d ran %d times", threads, i, c)
			}
		}
	}
}

func TestForEachCtxPanicReturnsErrorExactlyOnce(t *testing.T) {
	for _, threads := range []int{1, 4} {
		var ran int32
		err := runPlain(context.Background(), 100, threads, func(worker, task int) {
			atomic.AddInt32(&ran, 1)
			if task == 7 {
				panic("boom in task 7")
			}
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("threads=%d: err = %v, want *PanicError", threads, err)
		}
		if pe.Value != "boom in task 7" {
			t.Errorf("panic value = %v", pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "parallel_test") {
			t.Errorf("stack missing panic site:\n%s", pe.Stack)
		}
		// Dispatch must stop after the panic: with 1 thread the
		// remaining 92 tasks never run.
		if threads == 1 && ran != 8 {
			t.Errorf("ran %d tasks after panic at task 7, want 8", ran)
		}
	}
}

func TestForEachCtxAllWorkersPanicSingleError(t *testing.T) {
	// Every task panics on every worker; exactly one error must come
	// back, not a crash and not a composite.
	err := runPlain(context.Background(), 64, 8, func(worker, task int) {
		panic(task)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

func TestForEachCtxCancellationStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int32
	release := make(chan struct{})
	var once sync.Once
	err := runPlain(ctx, 10_000, 4, func(worker, task int) {
		atomic.AddInt32(&started, 1)
		once.Do(func() {
			cancel()
			close(release)
		})
		<-release // all running tasks block until the first cancels
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The four in-flight tasks may finish, but dispatch must stop
	// promptly: nowhere near the 10k total.
	if n := atomic.LoadInt32(&started); n > 16 {
		t.Errorf("%d tasks started after cancellation", n)
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := runPlain(ctx, 100, 1, func(worker, task int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("task ran under a pre-cancelled context")
	}
}

func TestForEachCtxEdgeCases(t *testing.T) {
	// n == 0: no work, no error, fn never called.
	ran := false
	if err := runPlain(context.Background(), 0, 4, func(int, int) { ran = true }); err != nil || ran {
		t.Errorf("n=0: err=%v ran=%v", err, ran)
	}
	// threads > n: clamped, every task still runs exactly once.
	counts := make([]int32, 3)
	err := runPlain(context.Background(), 3, 64, func(worker, task int) {
		if worker < 0 || worker >= 3 {
			t.Errorf("worker id %d out of clamped range", worker)
		}
		atomic.AddInt32(&counts[task], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Errorf("task %d ran %d times", i, c)
		}
	}
}

func TestForEachCtxErrReturnsFirstTaskError(t *testing.T) {
	boom := errors.New("task 7 failed")
	var ran int32
	err := ForEachCtxErr(context.Background(), 100, 1, func(ctx context.Context, worker, task int) error {
		atomic.AddInt32(&ran, 1)
		if task == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task error", err)
	}
	// Single-threaded: the error cancels dispatch right after task 7.
	if ran != 8 {
		t.Errorf("ran %d tasks, want 8", ran)
	}
}

func TestForEachCtxErrSuccessAndPanicPrecedence(t *testing.T) {
	if err := ForEachCtxErr(context.Background(), 50, 4, func(ctx context.Context, worker, task int) error {
		return nil
	}); err != nil {
		t.Fatalf("all-nil tasks returned %v", err)
	}
	err := ForEachCtxErr(context.Background(), 50, 4, func(ctx context.Context, worker, task int) error {
		panic("worker bug")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "worker bug" {
		t.Fatalf("err = %v, want *PanicError(worker bug)", err)
	}
}

func TestForEachCtxErrParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := ForEachCtxErr(ctx, 1000, 2, func(tctx context.Context, worker, task int) error {
		cancel()
		<-tctx.Done() // tasks must observe parent cancellation via tctx
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestForEachRepanicsWorkerPanic: a worker panic reaches the caller's
// layer with its value and panic-site stack intact, through the
// PanicValue/PanicStack pair that error-wrapping layers
// (internal/resilience) read, even after the caller wraps the error.
func TestForEachRepanicsWorkerPanic(t *testing.T) {
	err := runPlain(context.Background(), 10, 2, func(worker, task int) { panic("legacy boom") })
	err = fmt.Errorf("shard: %w", err)
	var pv interface {
		PanicValue() any
		PanicStack() []byte
	}
	if !errors.As(err, &pv) {
		t.Fatalf("err = %v (%T), want a panic carrier", err, err)
	}
	if pv.PanicValue() != "legacy boom" {
		t.Errorf("panic value = %v", pv.PanicValue())
	}
	if !strings.Contains(string(pv.PanicStack()), "TestForEachRepanicsWorkerPanic") {
		t.Errorf("stack missing panic site:\n%s", pv.PanicStack())
	}
}

func TestMeasureScalingShape(t *testing.T) {
	points := MeasureScaling([]int{1, 2}, func(threads int) {
		if err := runPlain(context.Background(), 1000, threads, func(_, task int) {
			x := 0
			for i := 0; i < 1000; i++ {
				x += i * task
			}
			_ = x
		}); err != nil {
			t.Error(err)
		}
	})
	if len(points) != 2 {
		t.Fatalf("got %d points", len(points))
	}
	if points[0].Speedup < 0.99 || points[0].Speedup > 1.01 {
		t.Errorf("baseline speedup = %v, want 1", points[0].Speedup)
	}
	if points[1].Threads != 2 {
		t.Errorf("second point threads = %d", points[1].Threads)
	}
}
