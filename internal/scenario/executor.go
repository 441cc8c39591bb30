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
	// for strict sequencing; benches force the measured width).
	Workers int
	// Pool supplies warm per-worker arenas keyed by stable slot
	// (stage-major, worker-minor — identical across both executors).
	// nil hands out fresh arenas.
	Pool *scratch.Pool
	// StageTimeout bounds each stage's supervised execution; 0 means
	// no deadline. Streaming stages cannot be retried (their input is
	// consumed), so resilience runs every stage with Attempts=1 and
	// this timeout.
	StageTimeout time.Duration
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

func stagePolicy(opt Options) resilience.Policy {
	// Streaming stages consume their input as they run, so a retry
	// would replay nothing: one attempt, panic capture, optional
	// deadline.
	return resilience.Policy{Attempts: 1, Timeout: opt.StageTimeout}
}

func pointLabel(scenario, stage string) string {
	return "scenario/" + scenario + "/" + stage
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

// fillStats converts the mutable accounting into the public stats and
// computes occupancy and the overlap ratio, publishing gauges when an
// observer is attached.
func (r *Result) fillStats(o *obs.Observer, p *Pipeline, stats []*stageStats, workers [][]*Worker) {
	var sumWall, minFirst, maxLast int64
	for si := range p.Stages {
		ss := stats[si]
		wall := ss.wallNs()
		occ := 0.0
		nw := len(workers[si])
		if wall > 0 && nw > 0 {
			occ = float64(ss.busyNs.Load()) / (float64(wall) * float64(nw))
		}
		r.Stages[si] = StageStats{
			Name:      p.Stages[si].Name,
			Workers:   nw,
			In:        ss.in.Load(),
			Out:       ss.out.Load(),
			BusyNs:    ss.busyNs.Load(),
			WallNs:    wall,
			QueuePeak: int(ss.queuePeak.Load()),
			Occupancy: occ,
		}
		sumWall += wall
		if f := ss.firstNs.Load(); f > 0 && (minFirst == 0 || f < minFirst) {
			minFirst = f
		}
		if l := ss.lastNs.Load(); l > maxLast {
			maxLast = l
		}
		lbl := r.Scenario + "/" + p.Stages[si].Name
		o.Gauge("scenario.stage_occupancy", lbl).Set(occ)
		o.Gauge("scenario.queue_peak", lbl).Set(float64(ss.queuePeak.Load()))
		o.Counter("scenario.items_in", lbl).Add(uint64(ss.in.Load()))
		o.Counter("scenario.items_out", lbl).Add(uint64(ss.out.Load()))
	}
	if span := maxLast - minFirst; span > 0 && sumWall > span {
		r.Overlap = float64(sumWall-span) / float64(span)
	}
	o.Gauge("scenario.overlap_ratio", r.Scenario+"/"+r.Mode).Set(r.Overlap)
}

// annotateStageSpan writes a stage's stats onto its span so the NDJSON
// trace export carries per-stage summaries for gbench-report.
func annotateStageSpan(sp *obs.Span, ss *StageStats) {
	sp.Annotate("items_in", fmt.Sprintf("%d", ss.In))
	sp.Annotate("items_out", fmt.Sprintf("%d", ss.Out))
	sp.Annotate("busy_ms", fmt.Sprintf("%.2f", float64(ss.BusyNs)/1e6))
	sp.Annotate("wall_ms", fmt.Sprintf("%.2f", float64(ss.WallNs)/1e6))
	sp.Annotate("occupancy", fmt.Sprintf("%.3f", ss.Occupancy))
	sp.Annotate("queue_peak", fmt.Sprintf("%d", ss.QueuePeak))
	sp.Annotate("workers", fmt.Sprintf("%d", ss.Workers))
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
	workers := prefetchWorkers(p, opt)
	stats := make([]*stageStats, nst)
	for i := range stats {
		stats[i] = &stageStats{}
	}
	plan := faultinject.Armed()
	start := time.Now()

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
			if err := send(cctx, chans[0], it, stats[0]); err != nil {
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
	for si := 0; si < nst; si++ {
		st := &p.Stages[si]
		in, out := chans[si], chans[si+1]
		ws := workers[si]
		ss := stats[si]
		var downstream *stageStats
		if si+1 < nst {
			downstream = stats[si+1]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(out)
			kname := pointLabel(name, st.Name)
			sctx, span := o.StartSpan(cctx, kname)
			err := resilience.Run(sctx, kname, stagePolicy(opt), func(actx context.Context) error {
				perr := parallel.ForEachCtxErr(actx, len(ws), len(ws), func(tctx context.Context, w, _ int) error {
					wk := ws[w]
					for {
						var it item
						var ok bool
						select {
						case it, ok = <-in:
							if !ok {
								return nil
							}
						case <-tctx.Done():
							return context.Cause(tctx)
						}
						ss.markActive(time.Since(start))
						ss.in.Add(1)
						if plan != nil {
							if err := plan.PointAt(tctx, kname); err != nil {
								return err
							}
						}
						sub := 0
						emit := func(v any) error {
							ot := item{key: childKey(it.key, sub), v: v}
							sub++
							if err := send(tctx, out, ot, downstream); err != nil {
								return err
							}
							ss.out.Add(1)
							return nil
						}
						t0 := time.Now()
						err := st.Fn(tctx, wk, it.v, emit)
						ss.busyNs.Add(time.Since(t0).Nanoseconds())
						ss.markActive(time.Since(start))
						if err != nil {
							return err
						}
					}
				})
				if perr != nil || st.Flush == nil || actx.Err() != nil {
					return perr
				}
				sub := 0
				parent := flushParentKey(si + 1)
				emit := func(v any) error {
					ot := item{key: childKey(parent, sub), v: v}
					sub++
					if err := send(actx, out, ot, downstream); err != nil {
						return err
					}
					ss.out.Add(1)
					return nil
				}
				t0 := time.Now()
				ferr := st.Flush(actx, ws[0], emit)
				ss.busyNs.Add(time.Since(t0).Nanoseconds())
				ss.markActive(time.Since(start))
				return ferr
			})
			if err != nil {
				fail(err)
			}
			// Span stats are filled post-hoc in fillStats; annotate
			// with the live counters so traces of failed runs still
			// carry partial progress.
			snap := StageStats{
				Name: st.Name, Workers: len(ws),
				In: ss.in.Load(), Out: ss.out.Load(),
				BusyNs: ss.busyNs.Load(), WallNs: ss.wallNs(),
				QueuePeak: int(ss.queuePeak.Load()),
			}
			if snap.WallNs > 0 && len(ws) > 0 {
				snap.Occupancy = float64(snap.BusyNs) / (float64(snap.WallNs) * float64(len(ws)))
			}
			annotateStageSpan(span, &snap)
			span.End(err)
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
	res.Elapsed = time.Since(start)
	res.fillStats(o, p, stats, workers)

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
	workers := prefetchWorkers(p, opt)
	stats := make([]*stageStats, len(p.Stages))
	for i := range stats {
		stats[i] = &stageStats{}
	}
	plan := faultinject.Armed()
	start := time.Now()

	runStage := func(si int, items []item) ([]item, error) {
		st := &p.Stages[si]
		ws := workers[si]
		ss := stats[si]
		kname := pointLabel(name, st.Name)
		sctx, span := o.StartSpan(ctx, kname)
		outs := make([][]item, len(items))
		var flushed []item
		err := resilience.Run(sctx, kname, stagePolicy(opt), func(actx context.Context) error {
			perr := parallel.ForEachCtxErr(actx, len(items), len(ws), func(tctx context.Context, w, i int) error {
				ss.markActive(time.Since(start))
				ss.in.Add(1)
				if plan != nil {
					if err := plan.PointAt(tctx, kname); err != nil {
						return err
					}
				}
				sub := 0
				emit := func(v any) error {
					outs[i] = append(outs[i], item{key: childKey(items[i].key, sub), v: v})
					sub++
					ss.out.Add(1)
					return nil
				}
				t0 := time.Now()
				err := st.Fn(tctx, ws[w], items[i].v, emit)
				ss.busyNs.Add(time.Since(t0).Nanoseconds())
				ss.markActive(time.Since(start))
				return err
			})
			if perr != nil || st.Flush == nil || actx.Err() != nil {
				return perr
			}
			sub := 0
			parent := flushParentKey(si + 1)
			emit := func(v any) error {
				flushed = append(flushed, item{key: childKey(parent, sub), v: v})
				sub++
				ss.out.Add(1)
				return nil
			}
			t0 := time.Now()
			ferr := st.Flush(actx, ws[0], emit)
			ss.busyNs.Add(time.Since(t0).Nanoseconds())
			ss.markActive(time.Since(start))
			return ferr
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
		snap := StageStats{
			Name: st.Name, Workers: len(ws),
			In: ss.in.Load(), Out: ss.out.Load(),
			BusyNs: ss.busyNs.Load(), WallNs: ss.wallNs(),
		}
		if snap.WallNs > 0 && len(ws) > 0 {
			snap.Occupancy = float64(snap.BusyNs) / (float64(snap.WallNs) * float64(len(ws)))
		}
		annotateStageSpan(span, &snap)
		span.End(err)
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
		for si := range p.Stages {
			items, err = runStage(si, items)
			if err != nil {
				break
			}
		}
	}
	res.Elapsed = time.Since(start)
	res.fillStats(o, p, stats, workers)
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
