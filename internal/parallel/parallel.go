// Package parallel provides the dynamic task scheduling used by every
// multi-threaded GenomicsBench kernel, mirroring the paper's use of
// OpenMP dynamic scheduling, plus the harness that measures thread
// scaling for Figure 7.
//
// There is one task loop, run: it clamps the thread count, sets up
// observability, isolates panics, honours cancellation and the first
// task error, and asks a task source which index range a worker runs
// next. There are two sources: the shared atomic counter (a range of
// one task, or a chunk of consecutive ones) and the per-worker deques
// with steal-half rebalancing (stealing.go). The four entry points —
// ForEachCtxErr, ForEachChunkedCtxErr, ForEachStealingErr and
// ForEachDispatchErr — only choose a source.
//
// When an obs.Observer is installed in the context (the suite driver
// does this), the scheduler records a latency histogram per pulled
// range and a worker-utilization gauge per run, labeled with the
// kernel name from obs.Label. Without an observer the only cost is a
// context lookup.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
)

// PanicError is a worker panic recovered by the scheduler, which
// converts the panic into an error so one bad task cannot take down
// the whole process. The stack is captured at the panic site.
type PanicError struct {
	Task  int    // task index whose fn panicked
	Value any    // the recovered panic value
	Stack []byte // goroutine stack at the panic site
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v", e.Task, e.Value)
}

// PanicValue returns the recovered panic value. Together with
// PanicStack it lets error-wrapping layers (internal/resilience)
// recognize scheduler-recovered panics without importing this package.
func (e *PanicError) PanicValue() any { return e.Value }

// PanicStack returns the stack captured at the panic site.
func (e *PanicError) PanicStack() []byte { return e.Stack }

// source is a dispatch discipline: it hands a worker the next index
// range to run. Everything else about a run lives in run.
type source interface {
	// next returns a non-empty range [lo, hi) for worker, or ok=false
	// once no work is left for it anywhere.
	next(worker int) (lo, hi int, ok bool)
}

// counter is the shared-cursor source — the moral equivalent of
// `#pragma omp parallel for schedule(dynamic, chunk)`: every worker
// pulls the next `chunk` consecutive indices off one atomic.
type counter struct {
	cursor   atomic.Int64
	n, chunk int
}

func (c *counter) next(int) (lo, hi int, ok bool) {
	hi = int(c.cursor.Add(int64(c.chunk)))
	lo = hi - c.chunk
	if lo >= c.n {
		return 0, 0, false
	}
	return lo, min(hi, c.n), true
}

// chunked returns the constructor run wants for a shared counter
// handing out `chunk` indices per pull; chunk <= 0 sizes the chunk
// from the run's task and (clamped) thread counts with chunkFor.
func chunked(chunk int) func(n, threads int) source {
	return func(n, threads int) source {
		if chunk <= 0 {
			return &counter{n: n, chunk: chunkFor(n, threads)}
		}
		return &counter{n: n, chunk: chunk}
	}
}

// chunkFor picks a chunk size for n fine-grained tasks on `threads`
// workers: large enough to amortize the shared-counter fetch, small
// enough to keep ~8 chunks per worker for dynamic load balancing.
func chunkFor(n, threads int) int {
	return max(1, min(64, n/(threads*8)))
}

// workerClock accumulates one worker's busy time and completed-pull
// count. The trailing pad keeps adjacent workers' clocks on separate
// cache lines (the accumulators are written from every pull).
type workerClock struct {
	busyNs int64
	tasks  int64
	_      perf.CacheLinePad
}

// run is the one task loop. It runs fn(ctx, worker, i) for every i in
// [0,n) on `threads` workers (GOMAXPROCS when <= 0, never more than n;
// a single worker runs inline on the caller's goroutine), each pulling
// index ranges from the source newSource builds. fn receives the
// worker id so kernels can keep per-worker state without locking, and
// a derived context so nested blocking work (fault delays, IO)
// observes the run winding down.
//
// Dispatch stops — in-flight tasks finish, the rest of a range whose
// task failed is skipped — on the first task error, the first panic,
// or cancellation of ctx. What comes back, in order of precedence: a
// *PanicError for the first recovered panic (carrying the panicking
// task's index and stack); the parent's cause (context.Canceled,
// context.DeadlineExceeded, or what it was cancelled with) if ctx is
// done; the first task error as recorded, even when that error is
// context.Canceled itself, so callers can always attribute the
// failure; nil when every task completed.
//
// With an observer installed, each pulled range is one
// parallel.task_latency_ns observation and one parallel.tasks_completed
// count (so a chunked run reports per chunk, its scheduling unit).
func run(ctx context.Context, n, threads int, newSource func(n, threads int) source,
	fn func(ctx context.Context, worker, task int) error) error {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > n {
		threads = n
	}
	if n <= 0 {
		return nil
	}
	src := newSource(n, threads)
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// All handles are nil (no-op) when no observer is installed.
	var (
		taskHist *obs.Histogram
		clocks   []workerClock
		t0       time.Time
	)
	o := obs.From(ctx)
	label := ""
	if o != nil {
		label = obs.Label(ctx)
		taskHist = o.Histogram("parallel.task_latency_ns", label, "ns")
		clocks = make([]workerClock, threads)
		t0 = time.Now()
	}

	// The first task error is recorded here, not recovered from
	// context.Cause: a task may legitimately return context.Canceled
	// (e.g. a stale deadline bubbled out of nested work), and the
	// cause slot cannot distinguish that from a plain cancellation.
	var (
		panicOnce, errOnce sync.Once
		perr               *PanicError
		taskErr            error
	)
	runRange := func(worker, lo, hi int) {
		task := lo
		defer func() {
			if r := recover(); r != nil {
				// debug.Stack in a deferred recover still sees the
				// panicking frames, so the error carries the real site.
				pe := &PanicError{Task: task, Value: r, Stack: debug.Stack()}
				panicOnce.Do(func() { perr = pe })
				cancel(pe)
			}
		}()
		var start time.Time
		if taskHist != nil {
			start = time.Now()
		}
		for ; task < hi; task++ {
			if err := fn(cctx, worker, task); err != nil {
				errOnce.Do(func() { taskErr = err })
				cancel(err)
				break
			}
		}
		if taskHist != nil {
			d := time.Since(start).Nanoseconds()
			taskHist.Observe(float64(d))
			clocks[worker].busyNs += d
			clocks[worker].tasks++
		}
	}
	// cctx.Err is checked before every pull so cancellation stops new
	// work deterministically.
	work := func(worker int) {
		for cctx.Err() == nil {
			lo, hi, ok := src.next(worker)
			if !ok {
				return
			}
			runRange(worker, lo, hi)
		}
	}
	if threads == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(threads)
		for w := 0; w < threads; w++ {
			go func(worker int) {
				defer wg.Done()
				work(worker)
			}(w)
		}
		wg.Wait()
	}

	if o != nil {
		wall := time.Since(t0)
		var busy, done int64
		for i := range clocks {
			busy += clocks[i].busyNs
			done += clocks[i].tasks
		}
		if wall > 0 {
			util := float64(busy) / (float64(wall.Nanoseconds()) * float64(threads))
			o.Gauge("parallel.worker_utilization", label).Set(util)
		}
		o.Gauge("parallel.workers", label).Set(float64(threads))
		o.Counter("parallel.tasks_completed", label).Add(uint64(done))
		if d, ok := src.(*deques); ok {
			o.Counter("parallel.steals", label).Add(uint64(d.steals.Load()))
		}
	}

	// perr and taskErr were written before the cancel that followed
	// them and the workers were joined above, so these reads are ordered.
	switch {
	case perr != nil:
		return perr
	case ctx.Err() != nil:
		// The parent was cancelled: its cause wins even if a task also
		// errored while dispatch was winding down.
		return context.Cause(ctx)
	}
	return taskErr
}

// ForEachCtxErr is run over the shared counter, one task per pull.
func ForEachCtxErr(ctx context.Context, n, threads int, fn func(ctx context.Context, worker, task int) error) error {
	return run(ctx, n, threads, chunked(1), fn)
}

// ForEachChunkedCtxErr is run over the shared counter with chunkFor's
// chunk of consecutive tasks per pull, cutting scheduling overhead for
// fine-grained tasks.
func ForEachChunkedCtxErr(ctx context.Context, n, threads int, fn func(ctx context.Context, worker, task int) error) error {
	return run(ctx, n, threads, chunked(0), fn)
}

// ScalingPoint is one measurement of a scaling sweep.
type ScalingPoint struct {
	Threads  int
	Elapsed  time.Duration
	Speedup  float64 // relative to the 1-thread point
	Parallel float64 // efficiency = Speedup/Threads
}

// MeasureScaling runs work(threads) once for each requested thread
// count and reports the speedup curve. It is MeasureScalingReps with
// reps=1; measurements feeding real figures should use reps >= 3 so
// single-shot noise does not distort the curve.
func MeasureScaling(threadCounts []int, work func(threads int)) []ScalingPoint {
	return MeasureScalingReps(threadCounts, 1, work)
}

// MeasureScalingReps runs work(threads) reps times for each requested
// thread count, takes the median elapsed time per count, and reports
// the speedup curve. work must perform the same total job regardless
// of the thread count.
//
// Speedup is relative to the Threads==1 point wherever it appears in
// threadCounts; when no 1-thread point was measured, the smallest
// thread count is the baseline (so the curve is still monotone-
// comparable, just not anchored at 1.0). Efficiency divides by the
// thread count, substituting GOMAXPROCS for non-positive counts —
// that is how many workers a tc<=0 run actually uses.
func MeasureScalingReps(threadCounts []int, reps int, work func(threads int)) []ScalingPoint {
	if reps < 1 {
		reps = 1
	}
	elapsed := make([]time.Duration, len(threadCounts))
	runs := make([]time.Duration, reps)
	for i, tc := range threadCounts {
		for r := 0; r < reps; r++ {
			runtime.GC() // stabilize allocator state between measurements
			start := time.Now()
			work(tc)
			runs[r] = time.Since(start)
		}
		elapsed[i] = medianDuration(runs)
	}
	return scalingPoints(threadCounts, elapsed)
}

// scalingPoints derives the speedup curve from measured times. Split
// from the timing loop so baseline selection is testable with
// synthetic durations.
func scalingPoints(threadCounts []int, elapsed []time.Duration) []ScalingPoint {
	// Baseline: the Threads==1 measurement regardless of where it
	// appears in the sweep order; fall back to the smallest positive
	// count (then to the first point) when 1 was not measured.
	baseIdx := -1
	for i, tc := range threadCounts {
		if tc == 1 {
			baseIdx = i
			break
		}
	}
	if baseIdx < 0 {
		for i, tc := range threadCounts {
			if tc <= 0 {
				continue
			}
			if baseIdx < 0 || tc < threadCounts[baseIdx] {
				baseIdx = i
			}
		}
	}
	if baseIdx < 0 && len(threadCounts) > 0 {
		baseIdx = 0
	}
	points := make([]ScalingPoint, 0, len(threadCounts))
	for i, tc := range threadCounts {
		p := ScalingPoint{Threads: tc, Elapsed: elapsed[i]}
		if elapsed[i] > 0 {
			p.Speedup = float64(elapsed[baseIdx]) / float64(elapsed[i])
		}
		den := tc
		if den <= 0 {
			den = runtime.GOMAXPROCS(0)
		}
		if den > 0 {
			p.Parallel = p.Speedup / float64(den)
		}
		points = append(points, p)
	}
	return points
}

// medianDuration returns the median of ds (the mean of the two middle
// values for even lengths). ds is not modified.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
