package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestProbeDispatchRaceFree runs the scheduler microprobe itself —
// test binaries otherwise never do (GBENCH_TUNE=off pins the default) —
// on at least two Ps, so `go test -race` sees its workers share
// whatever they share.
func TestProbeDispatchRaceFree(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	if p := probeDispatch(); p != DispatchChunked && p != DispatchStealing {
		t.Fatalf("probeDispatch() = %d, want %d or %d", p, DispatchChunked, DispatchStealing)
	}
}

// TestForEachDispatchErrRoutesBothPolicies pins that the router honors
// a forced policy and that both schedulers keep the cover-every-task-
// exactly-once contract.
func TestForEachDispatchErrRoutesBothPolicies(t *testing.T) {
	for _, policy := range []int{DispatchChunked, DispatchStealing} {
		restore := ForceDispatch(policy)
		var hits [257]int32
		err := ForEachDispatchErr(context.Background(), len(hits), 4, func(_ context.Context, _, task int) error {
			atomic.AddInt32(&hits[task], 1)
			return nil
		})
		restore()
		if err != nil {
			t.Fatalf("policy %d: unexpected error %v", policy, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("policy %d: task %d ran %d times", policy, i, h)
			}
		}
	}
}

// TestForEachDispatchErrErrorContract pins first-error-cancels under
// both forced policies: the returned error is a task error, and no
// task runs twice.
func TestForEachDispatchErrErrorContract(t *testing.T) {
	boom := errors.New("boom")
	for _, policy := range []int{DispatchChunked, DispatchStealing} {
		restore := ForceDispatch(policy)
		var ran int64
		err := ForEachDispatchErr(context.Background(), 100, 4, func(_ context.Context, _, task int) error {
			atomic.AddInt64(&ran, 1)
			if task == 13 {
				return boom
			}
			return nil
		})
		restore()
		if !errors.Is(err, boom) {
			t.Fatalf("policy %d: got %v, want boom", policy, err)
		}
		if n := atomic.LoadInt64(&ran); n < 1 || n > 100 {
			t.Fatalf("policy %d: ran %d tasks", policy, n)
		}
	}
}

// TestForEachDispatchPureResults runs a deterministic per-task
// computation under both policies and asserts identical aggregate
// output — dispatch must be pure policy, never semantics.
func TestForEachDispatchPureResults(t *testing.T) {
	compute := func(policy int) []uint64 {
		restore := ForceDispatch(policy)
		defer restore()
		out := make([]uint64, 512)
		var mu sync.Mutex
		err := ForEachDispatchErr(context.Background(), len(out), 4, func(_ context.Context, _, task int) error {
			v := uint64(task)
			for i := 0; i < (task%7+1)*50; i++ {
				v = v*6364136223846793005 + 1442695040888963407
			}
			mu.Lock()
			out[task] = v
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("policy %d: %v", policy, err)
		}
		return out
	}
	chunked := compute(DispatchChunked)
	stealing := compute(DispatchStealing)
	for i := range chunked {
		if chunked[i] != stealing[i] {
			t.Fatalf("task %d differs across policies: %d vs %d", i, chunked[i], stealing[i])
		}
	}
}

// TestDispatchPolicyBounds pins that whatever the probe or environment
// resolves, the policy is one of the two defined schedulers.
func TestDispatchPolicyBounds(t *testing.T) {
	if p := DispatchPolicy(); p != DispatchChunked && p != DispatchStealing {
		t.Fatalf("DispatchPolicy() = %d, want %d or %d", p, DispatchChunked, DispatchStealing)
	}
}
