// Command gbench runs individual GenomicsBench kernels on the
// small/large synthetic datasets and reports timing, operation mix and
// per-task work statistics.
//
// The suite degrades gracefully: a kernel that panics, errors out, or
// exceeds its per-attempt timeout is retried under the resilience
// policy, then marked failed in the report while the remaining kernels
// still run. The process exits 0 only when every kernel succeeded.
//
// With -metrics and -trace the run leaves machine-readable NDJSON
// records — provenance meta, one kernel record per kernel (including
// failed and skipped ones), scheduler/resilience/fault counters,
// runtime samples, and phase spans — documented in
// docs/OBSERVABILITY.md. -pprof writes file-based runtime/pprof CPU
// and heap profiles.
//
// -dist N runs the shardable kernels over N worker processes, which
// are this same binary started as `gbench worker -addr A -id wK`: each
// dials the coordinator, pulls shard leases, executes them through the
// kernels table's executors and reports per-task digests (see
// docs/DISTRIBUTED.md). Nobody types that form; it is how the
// coordinator spawns its fleet.
//
// Usage:
//
//	gbench -bench fmi -size small -threads 4 -seed 42
//	gbench -bench all -size small
//	gbench -bench fmi,chain,spoa -size small
//	gbench -bench all -size small -faults "panic:spoa:1.0"
//	gbench -bench all -size small -metrics out.ndjson -trace trace.ndjson
//	gbench -bench all -size small -pprof cpu.out,mem.out
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/shard"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workerMode is the first argument of a spawned worker process.
const workerMode = "worker"

// exitKilled mimics an abrupt death: distinct from clean exits so the
// chaos tests can assert the worker really died by injection.
const exitKilled = 7

// run is the whole command; it returns the exit status: 0 when every
// kernel succeeded, 1 when one did not or an output could not be
// written, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == workerMode {
		return runWorker(args[1:], stderr)
	}
	fs := flag.NewFlagSet("gbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName   = fs.String("bench", "all", "kernel name, comma list, or 'all'")
		sizeName    = fs.String("size", "small", "dataset size: small or large")
		threads     = fs.Int("threads", 1, "worker threads")
		seed        = fs.Int64("seed", 42, "dataset seed")
		pprofSpec   = fs.String("pprof", "", `write runtime/pprof profiles: "cpu.out", "cpu.out,mem.out", or ",mem.out"`)
		metricsPath = fs.String("metrics", "", "write run metrics (NDJSON) to this file")
		tracePath   = fs.String("trace", "", "write phase spans (NDJSON) to this file")
		sampleEvery = fs.Duration("sample-interval", 100*time.Millisecond, "runtime sampler interval (with -metrics)")
		faults      = fs.String("faults", "", `fault plan, e.g. "panic:spoa:0.5,delay:chain:200ms" (see internal/faultinject)`)
		faultSeed   = fs.Int64("fault-seed", 1, "seed for deterministic fault firing")
		timeout     = fs.Duration("timeout", 0, "per-attempt kernel timeout (0 = size default)")
		attempts    = fs.Int("attempts", 0, "attempts per kernel (0 = policy default)")
		distN       = fs.Int("dist", 0, "run shardable kernels over N worker processes (0 = in-process)")
		distAddr    = fs.String("dist-addr", "127.0.0.1:0", "coordinator listen address (with -dist)")
		distShards  = fs.Int("dist-shards", 16, "shards per distributed kernel job")
		distLease   = fs.Duration("dist-lease", 0, "shard lease duration (0 = 2s default)")
		distVerify  = fs.Bool("dist-verify", false, "re-run each distributed kernel in-process and fail on digest mismatch")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cpuPath, memPath, err := parsePprofSpec(*pprofSpec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	size, err := core.ParseSize(*sizeName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	benches, err := selectBenches(*benchName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var plan *faultinject.Plan
	if *faults != "" {
		plan, err = faultinject.Parse(*faults, *faultSeed)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		faultinject.Arm(plan)
		defer faultinject.Disarm()
		fmt.Fprintf(stderr, "gbench: fault plan armed: %s\n", *faults)
	}

	policy := core.PolicyFor(size)
	if *timeout > 0 {
		policy.Timeout = *timeout
	}
	if *attempts > 0 {
		policy.Attempts = *attempts
	}

	// Observability: metrics registry + spans whenever either output
	// was requested; the runtime sampler only with -metrics (it is the
	// only consumer of the samples).
	var observer *obs.Observer
	if *metricsPath != "" || *tracePath != "" {
		observer = obs.NewObserver()
		if *metricsPath != "" {
			observer.Sampler = obs.StartSampler(*sampleEvery)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Distributed mode: start the coordinator, spawn the worker fleet
	// (handing it the same fault spec, whose killworker/slowshard/
	// dropconn clauses only workers evaluate), and attach the fabric to
	// the suite config. Workers that die mid-run are rescheduled around;
	// the fleet is reaped after the suite.
	var distCfg *core.DistConfig
	var fleet *shard.Fleet
	var coord *shard.Coordinator
	if *distN > 0 {
		opts := shard.DefaultOptions()
		if *distLease > 0 {
			opts.Lease = *distLease
			opts.HeartbeatGrace = *distLease
		}
		coord = shard.NewCoordinator(opts)
		if err := coord.Start(*distAddr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fleet, err = shard.SpawnWorkers(ctx, []string{self, workerMode}, coord.Addr(), *distN, *faults, *faultSeed)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		wctx, wcancel := context.WithTimeout(ctx, 15*time.Second)
		err = coord.WaitForWorkers(wctx, *distN)
		wcancel()
		if err != nil {
			fmt.Fprintf(stderr, "gbench: %v\n", err)
			fleet.Stop()
			return 1
		}
		fmt.Fprintf(stderr, "gbench: fabric up at %s with %d worker(s)\n", coord.Addr(), *distN)
		distCfg = &core.DistConfig{Fabric: coord, Shards: *distShards, Verify: *distVerify}
	}

	cfg := core.SuiteConfig{
		Size:    size,
		Seed:    *seed,
		Threads: *threads,
		Policy:  policy,
		Obs:     observer,
		Progress: func(format string, args ...any) {
			fmt.Fprintf(stderr, "gbench: "+format+"\n", args...)
		},
	}
	cfg.Dist = distCfg
	meta := core.NewRunMeta(cfg, *faults)
	outcomes := core.RunSuite(ctx, benches, cfg)

	if coord != nil {
		coord.Close() // broadcasts shutdown to surviving workers
		fleet.Wait()
	}
	if observer != nil {
		observer.Sampler.Stop()
	}
	if *metricsPath != "" {
		if err := writeMetrics(*metricsPath, meta, outcomes, plan, observer); err != nil {
			fmt.Fprintf(stderr, "gbench: writing metrics: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "gbench: metrics written to %s\n", *metricsPath)
	}
	if *tracePath != "" {
		if err := writeTrace(*tracePath, meta, observer); err != nil {
			fmt.Fprintf(stderr, "gbench: writing trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "gbench: trace written to %s\n", *tracePath)
	}
	if memPath != "" {
		if err := writeHeapProfile(memPath); err != nil {
			fmt.Fprintf(stderr, "gbench: writing heap profile: %v\n", err)
			return 1
		}
	}

	// The first six columns match the historical report exactly; the
	// resilience columns are appended so success rows stay byte-stable
	// within them.
	t := &core.Table{
		Title:   fmt.Sprintf("GenomicsBench (%s inputs, %d threads, seed %d)", size, *threads, *seed),
		Columns: []string{"benchmark", "tool", "elapsed", "tasks", "ops", "mix", "status", "shard", "error"},
	}
	for i := range outcomes {
		o := &outcomes[i]
		if o.Failed() {
			t.AddRow(o.Info.Name, o.Info.Tool, "-", "-", "-", "-", o.Status, core.ShardCell(o.Shard), core.FirstLine(o.Err.Error()))
			continue
		}
		stats := o.Stats
		t.AddRow(o.Info.Name, o.Info.Tool, stats.Elapsed.Round(1e5),
			stats.TaskStats.Count(), stats.Counters.Total(), stats.Counters.String(), o.Status, core.ShardCell(o.Shard), "-")
	}
	fmt.Fprint(stdout, t) // partial results flush even when kernels failed

	failed := core.FailedOutcomes(outcomes)
	if len(failed) == 0 {
		return 0
	}
	fmt.Fprintf(stderr, "\ngbench: %d of %d kernel(s) did not complete:\n", len(failed), len(outcomes))
	for i := range failed {
		o := &failed[i]
		fmt.Fprintf(stderr, "  %s: %s: %v\n", o.Info.Name, o.Status, o.Err)
		var ke *resilience.KernelError
		if errors.As(o.Err, &ke) && ke.Panicked {
			fmt.Fprintf(stderr, "%s\n", indent(ke.StackExcerpt(12), "    "))
		}
	}
	return 1
}

// runWorker is one worker process of the shard fabric. A -faults plan
// arms worker-side chaos: killworker makes this process die abruptly
// (exit 7, like a SIGKILL from outside), slowshard stalls shard
// execution to trip lease expiry and hedging, and dropconn tears the
// coordinator connection down after computing a shard, forcing a
// reschedule of already-finished work. Fault sites match against
// "workerID/kernel" labels, so "w1" targets one worker and "spoa"
// targets one kernel fleet-wide.
func runWorker(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("gbench "+workerMode, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "", "coordinator address (required)")
		id        = fs.String("id", "", "worker ID (required, e.g. w1)")
		faults    = fs.String("faults", "", "worker-side fault plan (killworker/slowshard/dropconn, plus task trip-point kinds)")
		faultSeed = fs.Int64("fault-seed", 1, "seed for deterministic fault firing")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *addr == "" || *id == "" {
		fmt.Fprintf(stderr, "gbench %s: -addr and -id are required\n", workerMode)
		return 2
	}
	plan, err := faultinject.Parse(*faults, *faultSeed)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = shard.RunWorker(ctx, shard.WorkerOptions{ID: *id, Addr: *addr, Plan: plan})
	switch {
	case err == nil, errors.Is(err, context.Canceled):
		return 0 // coordinator said shutdown, or the fleet was interrupted
	case errors.Is(err, shard.ErrKilled):
		fmt.Fprintf(stderr, "gbench %s: %s killed by fault injection\n", workerMode, *id)
		return exitKilled
	default:
		fmt.Fprintf(stderr, "gbench %s: %s: %v\n", workerMode, *id, err)
		return 1
	}
}

// parsePprofSpec splits -pprof into CPU and heap profile paths:
// "cpu.out" (CPU only), "cpu.out,mem.out" (both), ",mem.out" (heap
// only).
func parsePprofSpec(spec string) (cpu, mem string, err error) {
	if spec == "" {
		return "", "", nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) > 2 {
		return "", "", fmt.Errorf(`gbench: bad -pprof %q (want "cpu.out", "cpu.out,mem.out", or ",mem.out")`, spec)
	}
	cpu = strings.TrimSpace(parts[0])
	if len(parts) == 2 {
		mem = strings.TrimSpace(parts[1])
	}
	if cpu == "" && mem == "" {
		return "", "", fmt.Errorf("gbench: -pprof %q names no profile paths", spec)
	}
	return cpu, mem, nil
}

func writeMetrics(path string, meta core.RunMeta, outcomes []core.KernelOutcome, plan *faultinject.Plan, observer *obs.Observer) error {
	var faultRecs []core.FaultRecord
	for _, s := range plan.Stats() {
		faultRecs = append(faultRecs, core.FaultRecord{
			Type: "fault", Clause: s.Clause, Site: s.Site, Kind: s.Kind.String(),
			Evals: s.Evals, Tripped: s.Tripped,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := core.WriteMetricsNDJSON(f, meta, outcomes, faultRecs, observer); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTrace(path string, meta core.RunMeta, observer *obs.Observer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := core.WriteTraceNDJSON(f, meta, observer); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selectBenches resolves -bench: "all", one name, or a comma list.
func selectBenches(spec string) ([]core.Benchmark, error) {
	if spec == "all" {
		return core.Benchmarks(), nil
	}
	var benches []core.Benchmark
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		b, err := core.ByName(name)
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("no benchmarks selected by %q", spec)
	}
	return benches, nil
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}
