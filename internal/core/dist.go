package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/perf"
	"repro/internal/resilience"
	"repro/internal/shard"
)

// DistConfig switches RunSuite onto the fault-tolerant shard fabric
// for the kernels that have registered executors. Kernels without an
// executor (shared-index and batched-model kernels) transparently fall
// back to the in-process path, so a distributed suite run still covers
// all twelve kernels.
type DistConfig struct {
	// Fabric is a started coordinator with workers attached (or about
	// to attach; RunJob tolerates workers joining late).
	Fabric *shard.Coordinator
	// Shards is the shard count per kernel job; 0 means 16. More shards
	// than workers is deliberate: small shards bound the work a lease
	// expiry re-executes and give the hedging path stragglers to chase.
	Shards int
	// Verify re-executes every distributed kernel in-process and
	// fails the kernel if the digest vectors differ. It is the
	// differential check the chaos tests run; expensive, but the
	// strongest possible statement that fault recovery preserved
	// results.
	Verify bool
}

func (d *DistConfig) shards() int {
	if d.Shards > 0 {
		return d.Shards
	}
	return 16
}

// Distributed reports whether this kernel would run on the fabric.
func (d *DistConfig) Distributed(kernel string) bool {
	return d != nil && d.Fabric != nil && shard.HasExecutor(kernel)
}

// runDistKernel executes one kernel over the shard fabric and shapes
// the job result into a KernelOutcome. The coordinator-side work runs
// under a single-attempt resilience envelope for panic isolation only
// — retries live below it (worker-side resilience.Run per shard) and
// inside the coordinator (lease-based reschedules and hedges), so a
// job error surfacing here means the fabric already exhausted its
// recovery budget and the kernel should degrade to a failed outcome.
func runDistKernel(ctx context.Context, info Info, cfg SuiteConfig, progress func(string, ...any)) KernelOutcome {
	d := cfg.Dist
	out := KernelOutcome{Info: info, Status: StatusOK}
	start := time.Now()
	var res *shard.JobResult
	policy := resilience.Policy{Attempts: 1, Timeout: cfg.Policy.Timeout}
	err := resilience.Run(ctx, info.Name, policy, func(actx context.Context) error {
		// The task count is a function of size alone, so the coordinator
		// partitions [0, n) without building the dataset; n travels with
		// every assignment and a worker whose Prepare built a different
		// number fails the shard.
		ex, err := shard.NewExecutor(info.Name)
		if err != nil {
			return err
		}
		n, err := ex.Tasks(cfg.Size.String())
		if err != nil {
			return err
		}
		spec := shard.JobSpec{
			ID:        d.Fabric.NextJobID(),
			Kernel:    info.Name,
			Size:      cfg.Size.String(),
			Seed:      cfg.Seed,
			NumTasks:  n,
			NumShards: d.shards(),
		}
		progress("%s: distributing %d tasks over %d shards (%d worker(s))",
			info.Name, n, spec.NumShards, d.Fabric.Workers())
		res, err = d.Fabric.RunJob(actx, spec)
		if err != nil {
			return err
		}
		if d.Verify {
			local, _, err := LocalDigests(actx, info.Name, cfg.Size.String(), cfg.Seed)
			if err != nil {
				return fmt.Errorf("verify: %w", err)
			}
			if lfp := shard.Fingerprint(local); lfp != res.Fingerprint {
				return fmt.Errorf("verify: distributed fingerprint %016x != local %016x over %d tasks",
					res.Fingerprint, lfp, n)
			}
			progress("%s: verified bit-identical against in-process run", info.Name)
		}
		return nil
	})
	out.Attempts = 1
	if err != nil {
		out.Status = StatusFailed
		out.Err = err
		if res != nil {
			s := res.Summary
			out.Shard = &s
		}
		return out
	}
	s := res.Summary
	out.Shard = &s
	out.Fingerprint = res.Fingerprint
	// Shape the job result into RunStats so reporting downstream (table
	// rows, NDJSON, obs metrics) treats distributed kernels uniformly:
	// ops counted as kernel work units, per-shard wall times as the
	// task-work distribution.
	var counters perf.Counters
	counters.Add(perf.Other, res.Ops)
	ts := perf.NewTaskStats("shard wall ns")
	for _, ns := range res.ShardNs {
		ts.Observe(float64(ns))
	}
	out.Stats = RunStats{
		Elapsed:   time.Since(start),
		Counters:  counters,
		TaskStats: ts,
		Extra: map[string]float64{
			"shards":      float64(s.Shards),
			"dispatched":  float64(s.Dispatched),
			"rescheduled": float64(s.Rescheduled),
			"hedged":      float64(s.Hedged),
		},
	}
	return out
}
