package main

// This file is the only one in the benchmark that imports the program.
// Every public entry point a workload drives is bound here, so a PR
// that changes one of these signatures breaks this file (and the
// -smoke test), not the next benchmark run:
//
//	tuning.ResolveAll                                   cpufeat.String
//	core.Benchmarks, Benchmark.Info/Prepare/RunCtx/Release
//	core.RunSuite, core.SuiteConfig, core.PolicyFor, core.DistConfig
//	core.LocalDigests
//	scratch.NewPool, scratch.WithPool
//	scenario.Get, Def.Build, scenario.RunFused, scenario.RunStaged
//	shard.NewCoordinator, shard.DefaultOptions, Coordinator.Start/
//	  Addr/WaitForWorkers/Close, shard.RunWorker, shard.Fingerprint,
//	  shard.Partition, shard.EncodeTasks, shard.DecodeTasks
//	obs.NewObserver, obs.With, Registry.Snapshot

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cpufeat"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/scratch"
	"repro/internal/shard"
	"repro/internal/tuning"
)

// moduleOf maps a suite kernel name to the module that implements it;
// per-layer metrics are named by module.
var moduleOf = map[string]string{
	"fmi": "fmindex", "bsw": "bsw", "dbg": "dbg", "phmm": "phmm", "chain": "chain",
	"spoa": "poa", "abea": "abea", "grm": "grm", "nn-base": "nnbase",
	"pileup": "pileup", "nn-variant": "nnvariant", "kmer-cnt": "kmercnt",
}

// unstableExtra lists RunStats.Extra fields that depend on scheduling
// and so stay out of a kernel's signature. Found by diffing two
// fault-free runs at each of 1, 2 and 4 threads, Small and Large:
// kmer-cnt's probe count (and the op total that includes it) differs
// between thread counts and, above one thread, between runs.
var unstableExtra = map[string][]string{"kmer-cnt": {"probes"}}

func simdString() string { return cpufeat.String() }

// resolveTunables forces every start-up probe (or its cached answer)
// to resolve now, as a long-lived entry point would.
func resolveTunables() map[string]int {
	out := map[string]int{}
	for _, r := range tuning.ResolveAll() {
		out[r.Name] = r.Value
	}
	return out
}

func sizeOf(large bool) core.Size {
	if large {
		return core.Large
	}
	return core.Small
}

// Observer wraps the program's own obs.Observer. Only traced passes
// attach one, and only to harvest counters the layers already publish.
type Observer struct{ o *obs.Observer }

func newObserver() *Observer { return &Observer{o: obs.NewObserver()} }

func (o *Observer) inner() *obs.Observer {
	if o == nil {
		return nil
	}
	return o.o
}

// CounterSum adds a counter up over its labels. ok is false when the
// program published no counter of that name: absent, not zero.
func (o *Observer) CounterSum(name string) (sum float64, ok bool) {
	if o == nil {
		return 0, false
	}
	for _, m := range o.o.Metrics.Snapshot() {
		if m.Kind == "counter" && m.Name == name {
			sum += m.Value
			ok = true
		}
	}
	return sum, ok
}

// KernelRun is what one kernel execution reports.
type KernelRun struct {
	RunS      float64 // Stats.Elapsed: the timed kernel region
	Tasks     int
	MaxToMean float64 // TaskStats imbalance, the paper's Figure 4 ratio
	Signature string  // task count + scheduling-independent Extra fields
}

func kernelRun(name string, st core.RunStats) KernelRun {
	r := KernelRun{RunS: st.Elapsed.Seconds()}
	if st.TaskStats != nil {
		s := st.TaskStats.Summarize()
		r.Tasks, r.MaxToMean = s.Count, s.MaxToMean
	}
	keys := make([]string, 0, len(st.Extra))
	for k := range st.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "tasks=%d", r.Tasks)
	for _, k := range keys {
		if !slices.Contains(unstableExtra[name], k) {
			fmt.Fprintf(&sb, " %s=%v", k, st.Extra[k])
		}
	}
	r.Signature = sb.String()
	return r
}

// Kernel is one registered suite kernel.
type Kernel struct {
	Name, Module string
	b            core.Benchmark
}

// suiteKernels returns the registered kernels in suite order, keeping
// only names when any are given.
func suiteKernels(names ...string) ([]Kernel, error) {
	var out []Kernel
	for _, b := range core.Benchmarks() {
		n := b.Info().Name
		if len(names) > 0 && !slices.Contains(names, n) {
			continue
		}
		mod, ok := moduleOf[n]
		if !ok {
			return nil, fmt.Errorf("kernel %q has no module mapping in adapters.go", n)
		}
		out = append(out, Kernel{Name: n, Module: mod, b: b})
	}
	if len(names) > 0 && len(out) != len(names) {
		return nil, fmt.Errorf("kernels %v: only %d registered", names, len(out))
	}
	return out, nil
}

func (k Kernel) Prepare(large bool, seed int64) { k.b.Prepare(sizeOf(large), seed) }
func (k Kernel) Release()                       { k.b.Release() }

// Run executes the kernel region with a fresh per-kernel scratch.Pool
// in the context, as RunSuite installs one.
func (k Kernel) Run(ctx context.Context, threads int) (KernelRun, error) {
	st, err := k.b.RunCtx(scratch.WithPool(ctx, scratch.NewPool()), threads)
	if err != nil {
		return KernelRun{}, err
	}
	return kernelRun(k.Name, st), nil
}

// pinnedSeed makes RunSuite prepare one kernel's dataset from a fixed
// seed whatever the suite seed is.
type pinnedSeed struct {
	core.Benchmark
	seed int64
}

func (p pinnedSeed) Prepare(size core.Size, _ int64) { p.Benchmark.Prepare(size, p.seed) }

// KernelEvent is one transition RunSuite announced through its
// Progress hook: "running", "distributing" (coordinator-side Prepare
// done, RunJob about to start) or "done".
type KernelEvent struct {
	Kernel, Phase string
	At            time.Time
}

// SuiteOpts parameterizes one RunSuite call.
type SuiteOpts struct {
	Kernels []Kernel
	Large   bool
	Seed    int64
	Threads int
	// Pin overrides the dataset seed of the named kernels.
	Pin map[string]int64
	// Events, when non-nil, receives kernel transitions. Timed passes
	// leave it nil, so they run with no Progress hook at all.
	Events func(KernelEvent)
	Obs    *Observer
	Fabric *Fabric
}

// DistInfo is the shard lifecycle accounting of one fabric job.
type DistInfo struct {
	Fingerprint                                            string
	ExecS                                                  float64 // sum of worker-side shard times
	Dispatched, Completed, Rescheduled, Hedged, Duplicates float64
}

// SuiteOutcome is one kernel's result in a RunSuite call.
type SuiteOutcome struct {
	Kernel, Module string
	OK             bool
	Err            string
	KernelRun
	Dist *DistInfo
}

// runSuite calls core.RunSuite under core.PolicyFor(size), the way
// cmd/gbench does.
func runSuite(ctx context.Context, o SuiteOpts) []SuiteOutcome {
	benches := make([]core.Benchmark, len(o.Kernels))
	for i, k := range o.Kernels {
		benches[i] = k.b
		if s, ok := o.Pin[k.Name]; ok {
			benches[i] = pinnedSeed{k.b, s}
		}
	}
	size := sizeOf(o.Large)
	cfg := core.SuiteConfig{Size: size, Seed: o.Seed, Threads: o.Threads, Policy: core.PolicyFor(size), Obs: o.Obs.inner()}
	if o.Events != nil {
		cfg.Progress = func(format string, args ...any) {
			phase := "done"
			switch {
			case strings.HasPrefix(format, "%s: running"):
				phase = "running"
			case strings.HasPrefix(format, "%s: distributing"):
				phase = "distributing"
			case strings.HasPrefix(format, "%s: retrying"), strings.HasPrefix(format, "%s: verified"):
				return
			}
			name, _ := args[0].(string)
			o.Events(KernelEvent{Kernel: name, Phase: phase, At: time.Now()})
		}
	}
	if o.Fabric != nil {
		cfg.Dist = &core.DistConfig{Fabric: o.Fabric.coord, Shards: distShards}
	}
	outs := core.RunSuite(ctx, benches, cfg)
	res := make([]SuiteOutcome, len(outs))
	for i := range outs {
		oc := &outs[i]
		r := SuiteOutcome{Kernel: oc.Info.Name, Module: moduleOf[oc.Info.Name], OK: !oc.Failed()}
		if oc.Err != nil {
			r.Err = firstLine(oc.Err.Error())
		}
		if r.OK {
			r.KernelRun = kernelRun(oc.Info.Name, oc.Stats)
		}
		if oc.Shard != nil {
			d := &DistInfo{
				Fingerprint: fmt.Sprintf("%016x", oc.Fingerprint),
				Dispatched:  float64(oc.Shard.Dispatched), Completed: float64(oc.Shard.Completed),
				Rescheduled: float64(oc.Shard.Rescheduled), Hedged: float64(oc.Shard.Hedged),
				Duplicates: float64(oc.Shard.Duplicates),
			}
			if r.OK && oc.Stats.TaskStats != nil {
				d.ExecS = oc.Stats.TaskStats.Summarize().TotalWork / 1e9 // observations are shard wall ns
			}
			r.Dist = d
		}
		res[i] = r
	}
	return res
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Scenario is a built pipeline with the warm scratch.Pool its runs share.
type Scenario struct {
	Name   string
	BuildS float64
	pipe   *scenario.Pipeline
	pool   *scratch.Pool
}

// buildScenario instantiates a registered scenario with its default
// parameters overridden by params.
func buildScenario(name string, params map[string]float64) (*Scenario, error) {
	def := scenario.Get(name)
	if def == nil {
		return nil, fmt.Errorf("scenario %q is not registered", name)
	}
	p := def.Params.Clone()
	for k, v := range params {
		p[k] = v
	}
	start := time.Now()
	pipe, err := def.Build(p)
	if err != nil {
		return nil, fmt.Errorf("build scenario %s: %w", name, err)
	}
	return &Scenario{Name: name, BuildS: time.Since(start).Seconds(), pipe: pipe, pool: scratch.NewPool()}, nil
}

// StageRun is one pipeline stage's accounting from a Result.
type StageRun struct {
	Name      string
	BusyS     float64
	Occupancy float64
	QueuePeak float64
}

// ScenarioRun is what one executor run reports.
type ScenarioRun struct {
	Digest   string
	ElapsedS float64
	Source   float64
	Outputs  float64
	Overlap  float64
	Stages   []StageRun
}

// Run executes the pipeline on the fused executor (or its staged twin)
// with default worker widths and queue capacity. An acceptance-floor
// trip comes back as the error.
func (s *Scenario) Run(ctx context.Context, staged bool, o *Observer) (ScenarioRun, error) {
	run := scenario.RunFused
	if staged {
		run = scenario.RunStaged
	}
	res, err := run(obs.With(ctx, o.inner()), s.Name, s.pipe, scenario.Options{Pool: s.pool})
	if err != nil {
		return ScenarioRun{}, err
	}
	out := ScenarioRun{
		Digest: fmt.Sprintf("%016x", res.Digest), ElapsedS: res.Elapsed.Seconds(),
		Source: float64(res.Source), Outputs: float64(len(res.Final)), Overlap: res.Overlap,
	}
	for _, st := range res.Stages {
		out.Stages = append(out.Stages, StageRun{
			Name: st.Name, BusyS: float64(st.BusyNs) / 1e9, Occupancy: st.Occupancy, QueuePeak: float64(st.QueuePeak),
		})
	}
	return out, nil
}

// distShards is the shard count per fabric job, gbench's -dist-shards
// default.
const distShards = 16

// Fabric is a started coordinator with in-process workers attached
// over loopback TCP.
type Fabric struct {
	coord  *shard.Coordinator
	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	errs   []error
}

// startFabric listens on an ephemeral loopback port with
// shard.DefaultOptions and returns once all workers have joined.
func startFabric(ctx context.Context, workers int) (*Fabric, error) {
	f := &Fabric{coord: shard.NewCoordinator(shard.DefaultOptions())}
	if err := f.coord.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(ctx)
	f.cancel = cancel
	for w := 0; w < workers; w++ {
		f.wg.Add(1)
		go func(id string) {
			defer f.wg.Done()
			err := shard.RunWorker(wctx, shard.WorkerOptions{ID: id, Addr: f.coord.Addr()})
			if err != nil && !errors.Is(err, context.Canceled) {
				f.mu.Lock()
				f.errs = append(f.errs, fmt.Errorf("worker %s: %w", id, err))
				f.mu.Unlock()
			}
		}(fmt.Sprintf("w%d", w))
	}
	jctx, jcancel := context.WithTimeout(ctx, 15*time.Second)
	defer jcancel()
	if err := f.coord.WaitForWorkers(jctx, workers); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Close shuts the coordinator down, which tells the workers to stop,
// and returns once every worker goroutine has exited.
func (f *Fabric) Close() error {
	f.coord.Close()
	done := make(chan struct{})
	go func() { f.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second): // a worker missed the shutdown frame and is redialling
		f.cancel()
		<-done
	}
	f.cancel()
	f.mu.Lock()
	defer f.mu.Unlock()
	return errors.Join(f.errs...)
}

// LocalRef is the in-process reference execution of a shardable kernel.
type LocalRef struct {
	Fingerprint string
	Tasks       int
	ElapsedS    float64
}

func localRef(ctx context.Context, kernel string, large bool, seed int64) (LocalRef, error) {
	start := time.Now()
	digests, _, err := core.LocalDigests(ctx, kernel, sizeOf(large).String(), seed)
	if err != nil {
		return LocalRef{}, err
	}
	return LocalRef{
		Fingerprint: fmt.Sprintf("%016x", shard.Fingerprint(digests)),
		Tasks:       len(digests), ElapsedS: time.Since(start).Seconds(),
	}, nil
}

// encodeNsPerTask times the wire codec over the partition a job with
// this ID really used: EncodeTasks then DecodeTasks for every shard,
// per task.
func encodeNsPerTask(jobID uint64, tasks, shards int) (float64, error) {
	parts := shard.Partition(jobID, tasks, shards)
	const reps = 20
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, p := range parts {
			back, err := shard.DecodeTasks(shard.EncodeTasks(p))
			if err != nil || len(back) != len(p) {
				return 0, fmt.Errorf("task codec round trip: %d of %d tasks, err %v", len(back), len(p), err)
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps*tasks), nil
}
