package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

// TestErrAdaptersShareTheContract runs the scheduler's contract over
// every error-returning entry point, so the next one added to the
// table cannot skip it: every task runs exactly once; the first task
// error stops dispatch and comes back; a panic beats a task error and
// names its task; a cancelled parent beats a task error and comes back
// as the parent's cause.
func TestErrAdaptersShareTheContract(t *testing.T) {
	type adapter = func(ctx context.Context, n, threads int, fn func(context.Context, int, int) error) error
	forced := func(policy int) adapter {
		return func(ctx context.Context, n, threads int, fn func(context.Context, int, int) error) error {
			defer ForceDispatch(policy)()
			return ForEachDispatchErr(ctx, n, threads, fn)
		}
	}
	adapters := []struct {
		name string
		run  adapter
	}{
		{"ForEachCtxErr", ForEachCtxErr},
		{"ForEachChunkedCtxErr", ForEachChunkedCtxErr},
		{"ForEachStealingErr", ForEachStealingErr},
		{"ForEachDispatchErr/chunked", forced(DispatchChunked)},
		{"ForEachDispatchErr/stealing", forced(DispatchStealing)},
	}
	const n = 1000 // enough for ForEachChunkedCtxErr to pull real chunks
	boom := errors.New("boom")
	for _, a := range adapters {
		for _, threads := range []int{1, 4} {
			var hits [n]int32
			count := func(task int) { atomic.AddInt32(&hits[task], 1) }
			atMostOnce := func(what string) {
				t.Helper()
				for i := range hits {
					if h := atomic.SwapInt32(&hits[i], 0); h > 1 {
						t.Fatalf("%s threads=%d %s: task %d ran %d times", a.name, threads, what, i, h)
					}
				}
			}

			err := a.run(context.Background(), n, threads, func(_ context.Context, w, task int) error {
				if w < 0 || w >= threads {
					t.Errorf("%s threads=%d: worker id %d out of range", a.name, threads, w)
				}
				count(task)
				return nil
			})
			if err != nil {
				t.Fatalf("%s threads=%d cover: %v", a.name, threads, err)
			}
			for i := range hits {
				if h := atomic.SwapInt32(&hits[i], 0); h != 1 {
					t.Fatalf("%s threads=%d cover: task %d ran %d times", a.name, threads, i, h)
				}
			}

			var ran atomic.Int64
			err = a.run(context.Background(), n, threads, func(_ context.Context, _, task int) error {
				count(task)
				ran.Add(1)
				if task == 137 {
					return boom
				}
				return nil
			})
			if err != boom {
				t.Fatalf("%s threads=%d first-error: got %v, want boom", a.name, threads, err)
			}
			if ran.Load() == n {
				t.Fatalf("%s threads=%d first-error: every task still ran", a.name, threads)
			}
			atMostOnce("first-error")

			// Task 138 fails and task 137 panics; whichever a worker
			// reaches first, once the panic has happened it is the answer.
			var panicked atomic.Bool
			err = a.run(context.Background(), n, threads, func(ctx context.Context, _, task int) error {
				count(task)
				switch task {
				case 137:
					panicked.Store(true)
					panic("kaboom")
				case 138:
					return boom
				}
				return nil
			})
			var pe *PanicError
			switch {
			case panicked.Load():
				if !errors.As(err, &pe) || pe.Task != 137 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
					t.Fatalf("%s threads=%d panic-beats-error: got %v, want the panic of task 137 with its stack", a.name, threads, err)
				}
			case err != boom:
				t.Fatalf("%s threads=%d panic-beats-error: task 137 never ran, got %v, want boom", a.name, threads, err)
			}
			atMostOnce("panic-beats-error")

			why := errors.New("operator gave up")
			ctx, cancel := context.WithCancelCause(context.Background())
			ran.Store(0)
			err = a.run(ctx, n, threads, func(tctx context.Context, _, task int) error {
				count(task)
				if ran.Add(1) == 5 {
					cancel(why)
					<-tctx.Done() // the derived context sees the parent go
					return boom
				}
				return nil
			})
			if err != why {
				t.Fatalf("%s threads=%d parent-cancel: got %v, want the parent's cause", a.name, threads, err)
			}
			if ran.Load() == n {
				t.Fatalf("%s threads=%d parent-cancel: every task still ran", a.name, threads)
			}
			atMostOnce("parent-cancel")
		}
	}
}
