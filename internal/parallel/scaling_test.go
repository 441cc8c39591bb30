package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestScalingBaselineIsOneThreadRegardlessOfOrder(t *testing.T) {
	// Regression: the baseline must be the Threads==1 measurement even
	// when it is not the first (or slowest) point in the sweep. The old
	// code anchored on threadCounts[0], so a [4,2,1] sweep reported
	// speedup < 1 for every point.
	counts := []int{4, 2, 1}
	elapsed := []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
	pts := scalingPoints(counts, elapsed)
	for i, want := range []float64{4, 2, 1} {
		if math.Abs(pts[i].Speedup-want) > 1e-9 {
			t.Errorf("point %d (threads=%d): speedup = %v, want %v", i, pts[i].Threads, pts[i].Speedup, want)
		}
	}
	if math.Abs(pts[0].Parallel-1.0) > 1e-9 {
		t.Errorf("4-thread efficiency = %v, want 1.0", pts[0].Parallel)
	}
	// Same sweep in ascending order must give identical speedups.
	asc := scalingPoints([]int{1, 2, 4},
		[]time.Duration{100 * time.Millisecond, 50 * time.Millisecond, 25 * time.Millisecond})
	for i, j := 0, 2; i < 3; i, j = i+1, j-1 {
		if math.Abs(pts[i].Speedup-asc[j].Speedup) > 1e-9 {
			t.Errorf("order-dependent speedup: desc[%d]=%v asc[%d]=%v", i, pts[i].Speedup, j, asc[j].Speedup)
		}
	}
}

func TestScalingBaselineFallbackSmallestCount(t *testing.T) {
	// No 1-thread point: the smallest positive count anchors the curve.
	pts := scalingPoints([]int{8, 2, 4},
		[]time.Duration{10 * time.Millisecond, 40 * time.Millisecond, 20 * time.Millisecond})
	if math.Abs(pts[1].Speedup-1.0) > 1e-9 {
		t.Errorf("2-thread point speedup = %v, want baseline 1.0", pts[1].Speedup)
	}
	if math.Abs(pts[0].Speedup-4.0) > 1e-9 {
		t.Errorf("8-thread speedup = %v, want 4", pts[0].Speedup)
	}
}

func TestScalingZeroThreadCountEfficiency(t *testing.T) {
	// Regression: tc==0 (meaning "use GOMAXPROCS") must not divide by
	// zero; efficiency uses the worker count such a run actually gets.
	pts := scalingPoints([]int{0, 1},
		[]time.Duration{10 * time.Millisecond, 40 * time.Millisecond})
	p := pts[0]
	if math.IsNaN(p.Parallel) || math.IsInf(p.Parallel, 0) {
		t.Fatalf("tc=0 efficiency = %v", p.Parallel)
	}
	wantDen := float64(runtime.GOMAXPROCS(0))
	if math.Abs(p.Parallel-p.Speedup/wantDen) > 1e-9 {
		t.Errorf("tc=0 efficiency = %v, want speedup/%v", p.Parallel, wantDen)
	}
	if pts[1].Speedup != 1.0 {
		t.Errorf("1-thread point speedup = %v; tc=0 must not steal the baseline", pts[1].Speedup)
	}
}

func TestScalingZeroElapsedGuard(t *testing.T) {
	pts := scalingPoints([]int{1, 2}, []time.Duration{time.Millisecond, 0})
	if math.IsInf(pts[1].Speedup, 0) || math.IsNaN(pts[1].Speedup) {
		t.Errorf("zero-elapsed speedup = %v, want finite", pts[1].Speedup)
	}
}

func TestMeasureScalingRunsWorkOncePerCount(t *testing.T) {
	var calls atomic.Int64
	perThread := map[int]int{}
	pts := MeasureScaling([]int{2, 1}, func(threads int) {
		calls.Add(1)
		perThread[threads]++
	})
	if calls.Load() != 2 {
		t.Errorf("work called %d times, want once per thread count", calls.Load())
	}
	if perThread[1] != 1 || perThread[2] != 1 {
		t.Errorf("per-thread calls = %v", perThread)
	}
	if len(pts) != 2 || pts[0].Threads != 2 || pts[1].Threads != 1 {
		t.Errorf("points = %+v", pts)
	}
	if math.Abs(pts[1].Speedup-1.0) > 1e-9 {
		t.Errorf("1-thread speedup = %v, want baseline 1.0 despite sweep order", pts[1].Speedup)
	}
}

func TestForEachCtxErrReturnsRecordedCanceledTaskError(t *testing.T) {
	// Regression: a task that legitimately returns context.Canceled
	// (e.g. a stale deadline bubbling out of nested work) must come
	// back to the caller as the cause, not be swallowed as "the run was
	// cancelled" with no attribution.
	taskErr := fmt.Errorf("nested stage: %w", context.Canceled)
	err := ForEachCtxErr(context.Background(), 8, 2, func(ctx context.Context, worker, task int) error {
		if task == 3 {
			return taskErr
		}
		return nil
	})
	if !errors.Is(err, taskErr) {
		t.Errorf("err = %v, want the recorded task error", err)
	}

	// Even a bare context.Canceled return is attributed.
	err = ForEachCtxErr(context.Background(), 4, 2, func(ctx context.Context, worker, task int) error {
		if task == 0 {
			return context.Canceled
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("bare canceled: err = %v", err)
	}
}

func TestForEachCtxErrParentCausePrecedence(t *testing.T) {
	// When the parent context is cancelled with a cause, that cause wins
	// over any task error racing with the shutdown.
	parentCause := errors.New("suite deadline")
	ctx, cancel := context.WithCancelCause(context.Background())
	started := make(chan struct{}, 1)
	done := make(chan error, 1)
	go func() {
		done <- ForEachCtxErr(ctx, 1000, 2, func(c context.Context, worker, task int) error {
			select {
			case started <- struct{}{}:
			default:
			}
			<-c.Done()
			return errors.New("task noticed shutdown")
		})
	}()
	<-started
	cancel(parentCause)
	if err := <-done; !errors.Is(err, parentCause) {
		t.Errorf("err = %v, want parent cause", err)
	}
}

func TestForEachCtxRecordsTaskMetrics(t *testing.T) {
	o := obs.NewObserver()
	ctx := obs.WithLabel(obs.With(context.Background(), o), "fmi")
	n := 64
	err := runPlain(ctx, n, 4, func(worker, task int) {
		time.Sleep(100 * time.Microsecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	h := o.Metrics.Histogram("parallel.task_latency_ns", "fmi", "ns")
	if got := h.Count(); got != uint64(n) {
		t.Errorf("task latency observations = %d, want %d", got, n)
	}
	if h.Min() < float64(50*time.Microsecond) {
		t.Errorf("min latency %v ns implausibly small", h.Min())
	}
	util := o.Metrics.Gauge("parallel.worker_utilization", "fmi").Value()
	if util <= 0 || util > 1.01 {
		t.Errorf("worker utilization = %v, want in (0, 1]", util)
	}
	if got := o.Metrics.Counter("parallel.tasks_completed", "fmi").Value(); got != uint64(n) {
		t.Errorf("tasks completed = %d, want %d", got, n)
	}
	if w := o.Metrics.Gauge("parallel.workers", "fmi").Value(); w != 4 {
		t.Errorf("workers gauge = %v", w)
	}
}

func TestForEachCtxNoObserverNoMetrics(t *testing.T) {
	// Without an observer the scheduler must not panic or allocate
	// metric state; plain runs stay plain.
	if err := runPlain(context.Background(), 16, 2, func(worker, task int) {}); err != nil {
		t.Fatal(err)
	}
}
