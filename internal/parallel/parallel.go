// Package parallel provides the dynamic task scheduling used by every
// multi-threaded GenomicsBench kernel, mirroring the paper's use of
// OpenMP dynamic scheduling, plus the harness that measures thread
// scaling for Figure 7.
//
// There is one task loop, run: it clamps the thread count, sets up
// observability, isolates panics, honours cancellation and the first
// task error, and has every worker pull the next index range off one
// shared atomic counter. The two entry points — ForEachCtxErr and
// ForEachChunkedCtxErr — only choose how many tasks a pull takes.
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
// the next `chunk` consecutive indices off one shared atomic counter —
// the moral equivalent of `#pragma omp parallel for schedule(dynamic,
// chunk)`; chunk <= 0 sizes it from the task and clamped thread counts
// with chunkFor. fn receives the worker id so kernels can keep
// per-worker state without locking, and a derived context so nested
// blocking work (fault delays, IO) observes the run winding down.
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
func run(ctx context.Context, n, threads, chunk int,
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
	if chunk <= 0 {
		chunk = chunkFor(n, threads)
	}
	var cursor atomic.Int64
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
			hi := int(cursor.Add(int64(chunk)))
			lo := hi - chunk
			if lo >= n {
				return
			}
			runRange(worker, lo, min(hi, n))
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
	return run(ctx, n, threads, 1, fn)
}

// ForEachChunkedCtxErr is run over the shared counter with chunkFor's
// chunk of consecutive tasks per pull, cutting scheduling overhead for
// fine-grained tasks.
func ForEachChunkedCtxErr(ctx context.Context, n, threads int, fn func(ctx context.Context, worker, task int) error) error {
	return run(ctx, n, threads, 0, fn)
}

// ScalingPoint is one measurement of a scaling sweep.
type ScalingPoint struct {
	Threads  int
	Elapsed  time.Duration
	Speedup  float64 // relative to the 1-thread point
	Parallel float64 // efficiency = Speedup/Threads
}

// MeasureScaling runs work(threads) once for each requested thread
// count and reports the speedup curve. work must perform the same
// total job regardless of the thread count.
//
// Speedup is relative to the Threads==1 point wherever it appears in
// threadCounts; when no 1-thread point was measured, the smallest
// thread count is the baseline (so the curve is still monotone-
// comparable, just not anchored at 1.0). Efficiency divides by the
// thread count, substituting GOMAXPROCS for non-positive counts —
// that is how many workers a tc<=0 run actually uses.
func MeasureScaling(threadCounts []int, work func(threads int)) []ScalingPoint {
	elapsed := make([]time.Duration, len(threadCounts))
	for i, tc := range threadCounts {
		runtime.GC() // stabilize allocator state between measurements
		start := time.Now()
		work(tc)
		elapsed[i] = time.Since(start)
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
