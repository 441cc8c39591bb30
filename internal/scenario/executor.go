package scenario

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/resilience"
	"repro/internal/scratch"
)

// Options configure one executor run.
type Options struct {
	// QueueCap bounds each inter-stage channel in the fused executor —
	// the backpressure knob. 0 means 8.
	QueueCap int
	// Workers caps every stage's worker count when > 0 (tests force 1
	// for strict sequencing and 4 for the width-independence check).
	Workers int
	// Pool supplies warm per-worker arenas keyed by stable slot
	// (stage-major, worker-minor — identical across both executors).
	// nil hands out fresh arenas.
	Pool *scratch.Pool
}

func (o Options) withDefaults() Options {
	if o.QueueCap <= 0 {
		o.QueueCap = 8
	}
	return o
}

// StageStats is one stage's progress and occupancy accounting. On a
// failed or cancelled run the counters still report partial progress —
// the shutdown tests assert on them.
type StageStats struct {
	Name    string
	Workers int
	In      int64 // items received
	Out     int64 // items emitted (In-Out were filtered)
	BusyNs  int64 // summed Fn/Flush execution time across workers
	WallNs  int64 // first item received -> last item finished
	// QueuePeak is the input channel's high-water depth (fused only);
	// a stage that never backs up its producer reads 0..1, a saturated
	// one reads the full QueueCap.
	QueuePeak int
	// Occupancy is BusyNs / (WallNs * Workers): how busy the stage's
	// pool was over its active window.
	Occupancy float64
}

// Result is one executor run's outcome.
type Result struct {
	Scenario string
	Mode     string // "fused" or "staged"
	Final    []any  // outputs in deterministic source order
	Digest   uint64
	Elapsed  time.Duration
	Source   int64 // items the source emitted
	Stages   []StageStats
	// Overlap is the stage-overlap ratio: (sum of stage active windows
	// - pipeline makespan) / makespan. ~0 when stages ran back to back
	// (staged), approaching len(Stages)-1 when every stage streamed
	// concurrently (fused).
	Overlap float64
}

// item is one value in flight, keyed for deterministic final ordering:
// the key is the item's emission path (source index, then per-stage
// emission sub-index), compared lexicographically at the sink.
type item struct {
	key []int32
	v   any
}

func childKey(parent []int32, sub int) []int32 {
	k := make([]int32, len(parent)+1)
	copy(k, parent)
	k[len(parent)] = int32(sub)
	return k
}

// flushParentKey fabricates a parent key that sorts after every real
// item at the given depth, for outputs a Flush hook emits after its
// stage's input is exhausted.
func flushParentKey(depth int) []int32 {
	k := make([]int32, depth)
	for i := range k {
		k[i] = 1 << 30
	}
	return k
}

func keyLess(a, b []int32) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// stageStats is the executors' mutable accounting; atomics because
// fused stage workers update concurrently.
type stageStats struct {
	in, out   atomic.Int64
	busyNs    atomic.Int64
	firstNs   atomic.Int64 // offset from run start; 0 = never active
	lastNs    atomic.Int64
	queuePeak atomic.Int64
}

func (s *stageStats) markActive(sinceStart time.Duration) {
	ns := sinceStart.Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	s.firstNs.CompareAndSwap(0, ns)
	atomicMax(&s.lastNs, ns)
}

func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (s *stageStats) wallNs() int64 {
	first, last := s.firstNs.Load(), s.lastNs.Load()
	if first == 0 || last < first {
		return 0
	}
	return last - first
}

// snapshot reads the accounting into the public form. Occupancy is
// busy time over (active window x workers).
func (s *stageStats) snapshot(name string, workers int) StageStats {
	out := StageStats{
		Name: name, Workers: workers,
		In: s.in.Load(), Out: s.out.Load(),
		BusyNs: s.busyNs.Load(), WallNs: s.wallNs(),
		QueuePeak: int(s.queuePeak.Load()),
	}
	if out.WallNs > 0 && workers > 0 {
		out.Occupancy = float64(out.BusyNs) / (float64(out.WallNs) * float64(workers))
	}
	return out
}

// stageWorkers resolves a stage's effective pool width under opt.
func stageWorkers(st *Stage, opt Options) int {
	w := st.Workers
	if w <= 0 {
		w = 1
	}
	if opt.Workers > 0 && w > opt.Workers {
		w = opt.Workers
	}
	if st.Flush != nil {
		w = 1
	}
	return w
}

// prefetchWorkers draws every stage's Worker structs from the pool in
// one sequential pass (scratch.Pool is not concurrency-safe), with
// slot numbering stage-major so fused and staged runs warm the same
// arenas and state.
func prefetchWorkers(p *Pipeline, opt Options) [][]*Worker {
	out := make([][]*Worker, len(p.Stages))
	slot := 0
	for si := range p.Stages {
		st := &p.Stages[si]
		n := stageWorkers(st, opt)
		ws := make([]*Worker, n)
		for w := 0; w < n; w++ {
			wk := &Worker{Arena: opt.Pool.Worker(slot)}
			if st.NewState != nil {
				wk.State = opt.Pool.WorkerState(slot, st.NewState)
			}
			if st.NewLocal != nil {
				wk.Local = st.NewLocal()
			}
			ws[w] = wk
			slot++
		}
		out[si] = ws
	}
	return out
}

// stagePolicy supervises a stage: streaming stages consume their input
// as they run, so a retry would replay nothing — one attempt, panic
// capture, no deadline of its own.
var stagePolicy = resilience.Policy{Attempts: 1}

// stageRun is one stage of one executor run — everything about running
// it that does not depend on how items arrive or where outputs go, so
// RunFused and RunStaged differ in their plumbing only. The executors
// hand step and flush an emit that delivers one keyed output (a
// bounded-channel send, or an append to a materialized slice).
type stageRun struct {
	st    *Stage
	si    int // stage index: received items carry keys of length si+1
	ws    []*Worker
	ss    *stageStats
	point string // "scenario/<name>/<stage>": span, supervisor and fault-point label
	plan  *faultinject.Plan
	start time.Time // of the executor run; activity marks are offsets from it
}

// newStageRuns sets up every stage of one executor run: workers drawn
// from the pool, zeroed accounting, the armed fault plan, and the run's
// clock, started here.
func newStageRuns(scenario string, p *Pipeline, opt Options) []*stageRun {
	workers := prefetchWorkers(p, opt)
	plan := faultinject.Armed()
	start := time.Now()
	runs := make([]*stageRun, len(p.Stages))
	for si := range runs {
		st := &p.Stages[si]
		runs[si] = &stageRun{
			st: st, si: si, ws: workers[si], ss: &stageStats{},
			point: "scenario/" + scenario + "/" + st.Name, plan: plan, start: start,
		}
	}
	return runs
}

// step runs one received item through the stage function on worker wk.
func (r *stageRun) step(ctx context.Context, wk *Worker, it item, emit func(item) error) error {
	r.ss.markActive(time.Since(r.start))
	r.ss.in.Add(1)
	if r.plan != nil {
		if err := r.plan.PointAt(ctx, r.point); err != nil {
			return err
		}
	}
	t0 := time.Now()
	err := r.st.Fn(ctx, wk, it.v, r.keyed(it.key, emit))
	r.busy(t0)
	return err
}

// flush runs the stage's Flush hook, if it has one, once its pool has
// drained: poolErr is what the pool returned, and a failed or cancelled
// pool skips the hook. Flush outputs sort after every per-item output.
func (r *stageRun) flush(ctx context.Context, poolErr error, emit func(item) error) error {
	if poolErr != nil || r.st.Flush == nil || ctx.Err() != nil {
		return poolErr
	}
	t0 := time.Now()
	err := r.st.Flush(ctx, r.ws[0], r.keyed(flushParentKey(r.si+1), emit))
	r.busy(t0)
	return err
}

// keyed adapts the executor's emit to the stage-facing one: outputs are
// keyed under parent in emission order and counted once delivered.
func (r *stageRun) keyed(parent []int32, emit func(item) error) func(any) error {
	sub := 0
	return func(v any) error {
		ot := item{key: childKey(parent, sub), v: v}
		sub++
		if err := emit(ot); err != nil {
			return err
		}
		r.ss.out.Add(1)
		return nil
	}
}

func (r *stageRun) busy(since time.Time) {
	r.ss.busyNs.Add(time.Since(since).Nanoseconds())
	r.ss.markActive(time.Since(r.start))
}

// endSpan annotates the stage's span with its live counters, so traces
// of failed runs still carry partial progress, and ends it.
func (r *stageRun) endSpan(sp *obs.Span, err error) {
	ss := r.ss.snapshot(r.st.Name, len(r.ws))
	sp.Annotate("items_in", fmt.Sprintf("%d", ss.In))
	sp.Annotate("items_out", fmt.Sprintf("%d", ss.Out))
	sp.Annotate("busy_ms", fmt.Sprintf("%.2f", float64(ss.BusyNs)/1e6))
	sp.Annotate("wall_ms", fmt.Sprintf("%.2f", float64(ss.WallNs)/1e6))
	sp.Annotate("occupancy", fmt.Sprintf("%.3f", ss.Occupancy))
	sp.Annotate("queue_peak", fmt.Sprintf("%d", ss.QueuePeak))
	sp.Annotate("workers", fmt.Sprintf("%d", ss.Workers))
	sp.End(err)
}

// finish sorts, digests and accepts the collected outputs, filling the
// result's derived fields. Called only on clean runs.
func (r *Result) finish(p *Pipeline, final []item) error {
	sort.Slice(final, func(i, j int) bool { return keyLess(final[i].key, final[j].key) })
	d := newDigest()
	r.Final = make([]any, len(final))
	for i := range final {
		r.Final[i] = final[i].v
		p.Fold(d, final[i].v)
	}
	r.Digest = d.Sum()
	if p.Accept != nil {
		return p.Accept(r.Final)
	}
	return nil
}

// fillStats stops the run's clock, converts the mutable accounting into
// the public stats and computes occupancy and the overlap ratio,
// publishing gauges when an observer is attached.
func (r *Result) fillStats(o *obs.Observer, runs []*stageRun) {
	r.Elapsed = time.Since(runs[0].start)
	var sumWall, minFirst, maxLast int64
	for si, sr := range runs {
		ss := sr.ss
		st := ss.snapshot(sr.st.Name, len(sr.ws))
		r.Stages[si] = st
		sumWall += st.WallNs
		if f := ss.firstNs.Load(); f > 0 && (minFirst == 0 || f < minFirst) {
			minFirst = f
		}
		if l := ss.lastNs.Load(); l > maxLast {
			maxLast = l
		}
		lbl := r.Scenario + "/" + st.Name
		o.Gauge("scenario.stage_occupancy", lbl).Set(st.Occupancy)
		o.Gauge("scenario.queue_peak", lbl).Set(float64(st.QueuePeak))
		o.Counter("scenario.items_in", lbl).Add(uint64(st.In))
		o.Counter("scenario.items_out", lbl).Add(uint64(st.Out))
	}
	if span := maxLast - minFirst; span > 0 && sumWall > span {
		r.Overlap = float64(sumWall-span) / float64(span)
	}
	o.Gauge("scenario.overlap_ratio", r.Scenario+"/"+r.Mode).Set(r.Overlap)
}

// RunFused executes the pipeline as a fused stream: every stage's
// worker pool runs concurrently, connected by bounded channels, so
// downstream stages start the moment the first item flows and a slow
// consumer backpressures its producer instead of letting intermediates
// pile up. Cancellation and stage faults drain the whole graph: every
// send and receive also waits on the run context, each stage closes
// its output channel when its pool exits, and the first failure's
// cause cancels everything else.
//
// On error the returned Result still carries partial-progress counters
// (source emissions, per-stage in/out); Final and Digest stay zero.
func RunFused(ctx context.Context, name string, p *Pipeline, opt Options) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	res := &Result{Scenario: name, Mode: "fused", Stages: make([]StageStats, len(p.Stages))}
	o := obs.From(ctx)
	ctx, root := o.StartSpan(ctx, "scenario/"+name+"/fused")
	cctx, cancel := context.WithCancelCause(ctx)
	defer cancel(context.Canceled)

	var (
		failOnce sync.Once
		firstErr error
	)
	fail := func(err error) {
		if err == nil {
			return
		}
		failOnce.Do(func() { firstErr = err })
		cancel(err)
	}

	nst := len(p.Stages)
	chans := make([]chan item, nst+1)
	for i := range chans {
		chans[i] = make(chan item, opt.QueueCap)
	}
	runs := newStageRuns(name, p, opt)

	send := func(ctx context.Context, ch chan<- item, it item, ss *stageStats) error {
		select {
		case ch <- it:
		case <-ctx.Done():
			return context.Cause(ctx)
		}
		if ss != nil {
			atomicMax(&ss.queuePeak, int64(len(ch)))
		}
		return nil
	}

	var wg sync.WaitGroup

	// Source: one goroutine replaying the scenario's input stream.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chans[0])
		idx := 0
		emit := func(v any) error {
			it := item{key: []int32{int32(idx)}, v: v}
			idx++
			if err := send(cctx, chans[0], it, runs[0].ss); err != nil {
				return err
			}
			atomic.AddInt64(&res.Source, 1)
			return nil
		}
		if err := p.Source(cctx, emit); err != nil {
			fail(err)
		}
	}()

	// Stages: a supervised worker pool each, draining its input
	// channel and closing its output once the pool exits (success or
	// not), so downstream always observes end-of-stream.
	for si, r := range runs {
		in, out := chans[si], chans[si+1]
		var downstream *stageStats
		if si+1 < nst {
			downstream = runs[si+1].ss
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(out)
			sctx, span := o.StartSpan(cctx, r.point)
			err := resilience.Run(sctx, r.point, stagePolicy, func(actx context.Context) error {
				perr := parallel.ForEachCtxErr(actx, len(r.ws), len(r.ws), func(tctx context.Context, w, _ int) error {
					emit := func(ot item) error { return send(tctx, out, ot, downstream) }
					for {
						select {
						case it, ok := <-in:
							if !ok {
								return nil
							}
							if err := r.step(tctx, r.ws[w], it, emit); err != nil {
								return err
							}
						case <-tctx.Done():
							return context.Cause(tctx)
						}
					}
				})
				return r.flush(actx, perr, func(ot item) error { return send(actx, out, ot, downstream) })
			})
			if err != nil {
				fail(err)
			}
			r.endSpan(span, err)
		}()
	}

	// Sink: collect the last channel until end-of-stream or abort.
	var final []item
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := chans[nst]
		for {
			select {
			case it, ok := <-last:
				if !ok {
					return
				}
				final = append(final, it)
			case <-cctx.Done():
				return
			}
		}
	}()

	wg.Wait()
	res.fillStats(o, runs)

	err := firstErr
	if err == nil {
		err = ctx.Err() // parent cancelled without a recorded cause
	}
	if err == nil {
		err = res.finish(p, final)
	}
	root.Annotate("items", fmt.Sprintf("%d", len(res.Final)))
	root.Annotate("overlap_ratio", fmt.Sprintf("%.2f", res.Overlap))
	root.End(err)
	if err != nil {
		return res, err
	}
	return res, nil
}

// RunStaged executes the pipeline the way the examples/ demos did:
// each stage runs to completion over fully materialized inputs before
// the next stage starts. It is the differential twin — same stage
// functions, same worker slots, same digest fold — so RunFused's
// output must match it bit for bit, and the fused-vs-staged time
// difference is exactly the value of stage overlap and
// non-materialization.
func RunStaged(ctx context.Context, name string, p *Pipeline, opt Options) (*Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	res := &Result{Scenario: name, Mode: "staged", Stages: make([]StageStats, len(p.Stages))}
	o := obs.From(ctx)
	ctx, root := o.StartSpan(ctx, "scenario/"+name+"/staged")
	runs := newStageRuns(name, p, opt)

	runStage := func(r *stageRun, items []item) ([]item, error) {
		sctx, span := o.StartSpan(ctx, r.point)
		outs := make([][]item, len(items))
		var flushed []item
		err := resilience.Run(sctx, r.point, stagePolicy, func(actx context.Context) error {
			perr := parallel.ForEachCtxErr(actx, len(items), len(r.ws), func(tctx context.Context, w, i int) error {
				return r.step(tctx, r.ws[w], items[i], func(ot item) error {
					outs[i] = append(outs[i], ot)
					return nil
				})
			})
			return r.flush(actx, perr, func(ot item) error {
				flushed = append(flushed, ot)
				return nil
			})
		})
		// Full materialization between stages is the point of the
		// reference executor.
		var next []item
		if err == nil {
			n := len(flushed)
			for i := range outs {
				n += len(outs[i])
			}
			next = make([]item, 0, n)
			for i := range outs {
				next = append(next, outs[i]...)
			}
			next = append(next, flushed...)
		}
		r.endSpan(span, err)
		return next, err
	}

	var items []item
	srcErr := p.Source(ctx, func(v any) error {
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		items = append(items, item{key: []int32{int32(len(items))}, v: v})
		atomic.AddInt64(&res.Source, 1)
		return nil
	})

	err := srcErr
	if err == nil {
		for _, r := range runs {
			items, err = runStage(r, items)
			if err != nil {
				break
			}
		}
	}
	res.fillStats(o, runs)
	if err == nil {
		err = res.finish(p, items)
	}
	root.Annotate("items", fmt.Sprintf("%d", len(res.Final)))
	root.End(err)
	if err != nil {
		return res, err
	}
	return res, nil
}
