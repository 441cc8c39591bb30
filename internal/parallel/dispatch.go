package parallel

import (
	"context"
	"runtime"

	"repro/internal/tuning"
)

// Dispatch policies for the kernels that route through the tunable
// scheduler choice instead of hardcoding one.
const (
	// DispatchChunked is the shared-atomic-counter source: one cache
	// line of dispatch state, no locality.
	DispatchChunked = 0
	// DispatchStealing is the per-worker-deque source: private blocks,
	// steal-half from the most loaded victim when a worker runs dry.
	DispatchStealing = 1
)

// dispatchPolicy decides which scheduler skew-prone region loops (dbg
// assembly regions, phmm active regions) use. poa committed to stealing
// unconditionally after profiling its ~10x window skew; dbg/phmm skew
// is real but milder, and on a single-core host the deques are pure
// overhead — so the choice is probed, not assumed. Default is the
// shared counter (the historical behaviour).
var dispatchPolicy = tuning.NewInt("parallel.dispatch", DispatchChunked, DispatchChunked, DispatchStealing, probeDispatch)

// DispatchPolicy returns the resolved scheduler policy (probing on
// first use). Exposed so reports can log which policy measurements ran
// under.
func DispatchPolicy() int { return dispatchPolicy.Get() }

// ForceDispatch pins the policy for tests and returns a restore
// function: defer parallel.ForceDispatch(parallel.DispatchStealing)().
func ForceDispatch(policy int) (restore func()) { return dispatchPolicy.Set(policy) }

// ForEachDispatchErr runs fn over [0,n) on the probed source. Both
// sources sit under the one task loop (run) and so share its
// cover-every-task-once, first-error-cancels, panic-beats-error
// contract; which one serves is pure policy: results must be
// identical, only dispatch order and cross-worker balance differ.
// Differential tests in dbg and phmm pin that property under both
// forced policies.
func ForEachDispatchErr(ctx context.Context, n, threads int, fn func(ctx context.Context, worker, task int) error) error {
	if dispatchPolicy.Get() == DispatchStealing {
		return ForEachStealingErr(ctx, n, threads, fn)
	}
	return ForEachCtxErr(ctx, n, threads, fn)
}

// probeDispatch times run over both sources on a synthetic skewed workload
// shaped like the dbg/phmm region loops: many tasks whose cost varies
// ~25x in a repeating pattern, so seeded blocks end up imbalanced and
// stealing has something to win back. Probes must not call
// dispatchPolicy.Get (sync.Once deadlock) — both sources are timed
// directly. The shared counter keeps the tie: stealing must be >5%
// faster to displace the simpler source.
func probeDispatch() int {
	threads := runtime.GOMAXPROCS(0)
	if threads <= 1 {
		// One worker drains either source in the same order; keep the
		// cheaper bookkeeping.
		return DispatchChunked
	}
	const tasks = 192
	// One result slot per task: workers run tasks concurrently, so a
	// shared accumulator would be a data race.
	var sink [tasks]uint64
	work := func(_ context.Context, _, task int) error {
		// Cost pattern 1..25 units, deterministic per task index.
		units := (task%5 + 1) * (task%5 + 1)
		s := uint64(task)*2654435761 + 1
		for i := 0; i < units*400; i++ {
			s = s*6364136223846793005 + 1442695040888963407
		}
		sink[task] = s
		return nil
	}
	timeSource := func(newSource func(n, threads int) source) float64 {
		// work cannot fail, panic or be cancelled: nothing to report.
		return tuning.BestNs(3, 1, func() { _ = run(context.Background(), tasks, threads, newSource, work) })
	}
	chunkedNs, stealNs := timeSource(chunked(1)), timeSource(newDeques)
	if stealNs < chunkedNs*0.95 {
		return DispatchStealing
	}
	return DispatchChunked
}
