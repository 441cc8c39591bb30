package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/shard"
)

// Status classifies a kernel's suite outcome.
type Status int

// Kernel outcome states.
const (
	StatusOK       Status = iota
	StatusFailed          // panicked or returned an error
	StatusTimedOut        // exceeded the per-kernel deadline
	StatusSkipped         // suite was cancelled before the kernel ran
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusFailed:
		return "failed"
	case StatusTimedOut:
		return "timeout"
	case StatusSkipped:
		return "skipped"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// KernelOutcome is one kernel's result in a resilient suite run:
// either Stats (StatusOK) or Err explaining the failure. Kernels that
// ran on the shard fabric additionally carry the shard lifecycle
// summary and the digest-vector fingerprint.
type KernelOutcome struct {
	Info   Info
	Status Status
	Stats  RunStats
	Err    error // *resilience.KernelError unless skipped
	// Shard is non-nil when the kernel ran distributed; it is the
	// coordinator's lifecycle accounting for the job.
	Shard *shard.Summary
	// Fingerprint folds the distributed run's per-task digest vector;
	// two runs of the same (kernel, size, seed) must match.
	Fingerprint uint64
}

// Failed reports whether the kernel did not complete successfully.
func (o *KernelOutcome) Failed() bool { return o.Status != StatusOK }

// SuiteConfig parameterizes RunSuite.
type SuiteConfig struct {
	Size    Size
	Seed    int64
	Threads int
	Policy  resilience.Policy
	// Progress, when non-nil, receives one line per kernel transition
	// (started, finished, failed); gbench points it at stderr so
	// the stdout report table stays clean.
	Progress func(format string, args ...any)
	// Obs, when non-nil, receives the run's metrics, spans, and
	// runtime-sampler labels. RunSuite installs it into the context it
	// hands kernels, so the scheduler (parallel) and supervisor
	// (resilience) layers record into it too.
	Obs *obs.Observer
	// Dist, when non-nil, routes shardable kernels over the
	// fault-tolerant fabric; the rest fall back to the in-process path.
	Dist *DistConfig
}

// PolicyFor returns the per-kernel timeout policy matched to a dataset
// size: small inputs finish in seconds, so a stuck kernel is cut off
// quickly; large inputs get proportionally more headroom.
func PolicyFor(size Size) resilience.Policy {
	if size == Large {
		return resilience.Policy{Timeout: 20 * time.Minute}
	}
	return resilience.Policy{Timeout: 4 * time.Minute}
}

// RunSuite executes the kernels in order under the resilience policy,
// degrading gracefully: a kernel that panics, errors, or times out is
// recorded as a failed outcome (with the typed error, including the
// panic stack) and the remaining kernels still run. Cancelling ctx
// stops the suite; kernels not yet started are marked skipped. The
// fault-injection label tracks the running kernel so an armed plan
// targets sites by kernel name.
func RunSuite(ctx context.Context, benches []Benchmark, cfg SuiteConfig) []KernelOutcome {
	progress := cfg.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}
	o := cfg.Obs // may be nil; every obs call below degrades to a no-op
	ctx = obs.With(ctx, o)
	sctx, suiteSpan := o.StartSpan(ctx, "suite")
	outcomes := make([]KernelOutcome, 0, len(benches))
	for _, b := range benches {
		info := b.Info()
		out := KernelOutcome{Info: info, Status: StatusOK}
		if ctx.Err() != nil {
			out.Status = StatusSkipped
			out.Err = ctx.Err()
			_, span := o.StartSpan(sctx, "kernel:"+info.Name)
			span.EndStatus(StatusSkipped.String())
			o.Counter("suite.kernels", info.Name).Inc()
			o.Counter("suite.kernels_"+StatusSkipped.String(), info.Name).Inc()
			outcomes = append(outcomes, out)
			continue
		}
		progress("%s: running", info.Name)
		o.SetLabel(info.Name)
		kctx, kernelSpan := o.StartSpan(obs.WithLabel(sctx, info.Name), "kernel:"+info.Name)
		// Shardable kernels route over the fabric when one is attached;
		// a failed job (dispatch budget exhausted, worker pool starved)
		// degrades to a failed outcome exactly like an in-process kernel
		// failure, and the remaining kernels still run.
		dist := cfg.Dist.Distributed(info.Name)
		if dist {
			out = runDistKernel(kctx, info, cfg, progress)
		} else {
			out = runLocalKernel(kctx, b, cfg)
		}
		o.SetLabel("")
		o.Counter("suite.kernels", info.Name).Inc()
		if out.Failed() {
			kernelSpan.EndStatus(out.Status.String())
			how := ""
			if dist {
				how = " (distributed)"
			}
			progress("%s: %s%s: %v", info.Name, out.Status, how, cause(out.Err))
		} else {
			kernelSpan.End(nil)
			recordKernelMetrics(o, info.Name, &out.Stats)
			how := ""
			if dist {
				how = fmt.Sprintf(" (distributed: %d shards, %d rescheduled, %d hedged)",
					out.Shard.Shards, out.Shard.Rescheduled, out.Shard.Hedged)
			}
			progress("%s: ok in %s%s", info.Name, out.Stats.Elapsed.Round(time.Millisecond), how)
		}
		o.Counter("suite.kernels_"+out.Status.String(), info.Name).Inc()
		outcomes = append(outcomes, out)
	}
	suiteSpan.End(ctx.Err())
	return outcomes
}

// runLocalKernel prepares, runs and releases one kernel in this
// process under the suite's resilience policy and shapes what happened
// into a KernelOutcome. Prepare runs inside the resilience envelope so
// a panic while building the dataset is isolated like a kernel panic.
func runLocalKernel(ctx context.Context, b Benchmark, cfg SuiteConfig) KernelOutcome {
	o := cfg.Obs
	info := b.Info()
	out := KernelOutcome{Info: info, Status: StatusOK}
	err := resilience.Run(ctx, info.Name, cfg.Policy, func(rctx context.Context) error {
		_, prepSpan := o.StartSpan(rctx, "prepare")
		b.Prepare(cfg.Size, cfg.Seed)
		prepSpan.End(nil)
		rctx, runSpan := o.StartSpan(rctx, "run")
		s, err := b.RunCtx(rctx, cfg.Threads)
		runSpan.End(err)
		if err == nil {
			out.Stats = s
		}
		return err
	})
	b.Release()
	if err != nil {
		out.Status, out.Err = StatusFailed, err
		var ke *resilience.KernelError
		if errors.As(err, &ke) && ke.TimedOut {
			out.Status = StatusTimedOut
		}
	}
	return out
}

// cause is what a failure line prints after the kernel and its status:
// a KernelError's underlying error, without the kernel name and the
// "failed" that the line already gives.
func cause(err error) error {
	var ke *resilience.KernelError
	if errors.As(err, &ke) {
		return ke.Err
	}
	return err
}

// recordKernelMetrics publishes one successful kernel execution's
// headline numbers into the registry: elapsed time (histogram, so
// repeated runs aggregate), op and task totals, and the task-work
// imbalance ratio that backs the paper's Figure 4.
func recordKernelMetrics(o *obs.Observer, kernel string, stats *RunStats) {
	if o == nil {
		return
	}
	o.Histogram("kernel.elapsed_ns", kernel, "ns").Observe(float64(stats.Elapsed.Nanoseconds()))
	o.Counter("kernel.ops", kernel).Add(stats.Counters.Total())
	if stats.TaskStats != nil {
		s := stats.TaskStats.Summarize()
		o.Counter("kernel.tasks", kernel).Add(uint64(s.Count))
		o.Gauge("kernel.task_work_max_to_mean", kernel).Set(s.MaxToMean)
	}
	for k, v := range stats.Extra {
		o.Gauge("kernel.extra."+k, kernel).Set(v)
	}
}

// FailedOutcomes filters the failures (anything not StatusOK) from a
// suite run, for exit-code decisions and failure summaries.
func FailedOutcomes(outcomes []KernelOutcome) []KernelOutcome {
	var failed []KernelOutcome
	for _, o := range outcomes {
		if o.Failed() {
			failed = append(failed, o)
		}
	}
	return failed
}
