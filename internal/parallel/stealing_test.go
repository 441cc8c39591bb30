package parallel

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The stealing scheduler must satisfy the exact contract the shared-
// counter scheduler does; these tests mirror parallel_test.go case for
// case, then add stealing-specific coverage (skew rebalancing, deque
// exhaustion under -race).

func TestStealingCoversAllTasksOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 4, 8} {
		for _, n := range []int{1, 7, 1000} {
			counts := make([]int32, n)
			if err := stealPlain(context.Background(), n, threads, func(worker, task int) {
				atomic.AddInt32(&counts[task], 1)
			}); err != nil {
				t.Fatalf("threads=%d n=%d: %v", threads, n, err)
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("threads=%d n=%d task %d ran %d times", threads, n, i, c)
				}
			}
		}
	}
}

func TestStealingZeroTasksAndDefaults(t *testing.T) {
	ran := false
	if err := stealPlain(context.Background(), 0, 4, func(int, int) { ran = true }); err != nil || ran {
		t.Errorf("n=0: err=%v ran=%v", err, ran)
	}
	var total int64
	err := stealPlain(context.Background(), 100, 0, func(worker, task int) { atomic.AddInt64(&total, int64(task)) })
	if err != nil || total != 4950 {
		t.Errorf("err = %v, sum = %d, want nil, 4950", err, total)
	}
}

func TestStealingWorkerIDsInRange(t *testing.T) {
	threads := 3
	err := stealPlain(context.Background(), 200, threads, func(worker, task int) {
		if worker < 0 || worker >= threads {
			t.Errorf("worker id %d out of range", worker)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// threads > n: clamped, worker ids stay under n.
	counts := make([]int32, 3)
	err = stealPlain(context.Background(), 3, 64, func(worker, task int) {
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

func TestStealingPanicReturnsErrorExactlyOnce(t *testing.T) {
	for _, threads := range []int{1, 4} {
		var ran int32
		err := stealPlain(context.Background(), 100, threads, func(worker, task int) {
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
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "stealing_test") {
			t.Errorf("stack missing panic site:\n%s", pe.Stack)
		}
		// Single-threaded dispatch is sequential: the remaining 92
		// tasks never run after the panic.
		if threads == 1 && ran != 8 {
			t.Errorf("ran %d tasks after panic at task 7, want 8", ran)
		}
	}
}

func TestStealingAllWorkersPanicSingleError(t *testing.T) {
	err := stealPlain(context.Background(), 64, 8, func(worker, task int) {
		panic(task)
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
}

func TestStealingCancellationStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int32
	release := make(chan struct{})
	var once sync.Once
	err := stealPlain(ctx, 10_000, 4, func(worker, task int) {
		atomic.AddInt32(&started, 1)
		once.Do(func() {
			cancel()
			close(release)
		})
		<-release
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&started); n > 16 {
		t.Errorf("%d tasks started after cancellation", n)
	}
}

func TestStealingPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := stealPlain(ctx, 100, 1, func(worker, task int) { ran = true })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("task ran under a pre-cancelled context")
	}
}

func TestStealingErrReturnsFirstTaskError(t *testing.T) {
	boom := errors.New("task 7 failed")
	var ran int32
	err := ForEachStealingErr(context.Background(), 100, 1, func(ctx context.Context, worker, task int) error {
		atomic.AddInt32(&ran, 1)
		if task == 7 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task error", err)
	}
	if ran != 8 {
		t.Errorf("ran %d tasks, want 8", ran)
	}
}

func TestStealingErrSuccessAndPanicPrecedence(t *testing.T) {
	if err := ForEachStealingErr(context.Background(), 50, 4, func(ctx context.Context, worker, task int) error {
		return nil
	}); err != nil {
		t.Fatalf("all-nil tasks returned %v", err)
	}
	err := ForEachStealingErr(context.Background(), 50, 4, func(ctx context.Context, worker, task int) error {
		panic("worker bug")
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "worker bug" {
		t.Fatalf("err = %v, want *PanicError(worker bug)", err)
	}
}

func TestStealingErrParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	err := ForEachStealingErr(ctx, 1000, 2, func(tctx context.Context, worker, task int) error {
		cancel()
		<-tctx.Done()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStealingRebalancesSkew pins the scheduler's reason to exist:
// with all the heavy tasks seeded into one worker's block, idle
// workers must steal them. Every worker sleeps per task, so if no
// stealing happened the skewed block would take ~n*d sequentially; we
// assert wall time well under that and that the heavy block's tasks
// were not all run by its seeded owner.
func TestStealingRebalancesSkew(t *testing.T) {
	const threads = 4
	const n = 64
	d := 2 * time.Millisecond
	owner := make([]int32, n)
	start := time.Now()
	err := stealPlain(context.Background(), n, threads, func(worker, task int) {
		// Tasks in the first block (worker 0's seed) are the slow ones.
		if task < n/threads {
			time.Sleep(4 * d)
		} else {
			time.Sleep(d / 4)
		}
		atomic.StoreInt32(&owner[task], int32(worker)+1)
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	workers := map[int32]bool{}
	for _, w := range owner[:n/threads] {
		workers[w] = true
	}
	if len(workers) < 2 {
		t.Errorf("heavy block ran entirely on one worker: no stealing occurred")
	}
	// Sequential time for the heavy block alone is (n/threads)*4d =
	// 128ms with d=2ms; rebalanced across 4 workers it must land far
	// below. Generous bound to stay robust on loaded CI machines.
	if seq := time.Duration(n/threads) * 4 * d; elapsed > seq {
		t.Errorf("elapsed %v not better than unstolen sequential heavy block %v", elapsed, seq)
	}
}

// TestStealingManyTasksRace hammers the deque protocol under -race:
// high task count, short tasks, repeated runs.
func TestStealingManyTasksRace(t *testing.T) {
	for rep := 0; rep < 5; rep++ {
		var total int64
		err := stealPlain(context.Background(), 5000, 8, func(worker, task int) {
			atomic.AddInt64(&total, 1)
		})
		if err != nil || total != 5000 {
			t.Fatalf("rep %d: err = %v, ran %d tasks, want 5000", rep, err, total)
		}
	}
}
