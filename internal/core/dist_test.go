package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/shard"
)

// testFabric starts a coordinator with test-scale failure detectors
// and n in-process workers named w1..wn, each armed with its own fault
// plan (specs[i] may be empty).
func testFabric(t *testing.T, ctx context.Context, n int, specs map[string]string) *shard.Coordinator {
	t.Helper()
	coord := shard.NewCoordinator(shard.Options{
		Lease:         400 * time.Millisecond,
		MaxAttempts:   10,
		HedgeAge:      30 * time.Millisecond,
		NoWorkerGrace: 10 * time.Second,
	})
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	for i := 1; i <= n; i++ {
		id := fmt.Sprintf("w%d", i)
		var plan *faultinject.Plan
		if spec := specs[id]; spec != "" {
			var err error
			plan, err = faultinject.Parse(spec, int64(i))
			if err != nil {
				t.Fatalf("plan %q: %v", spec, err)
			}
		}
		go func() {
			// Killed workers are respawned under the same ID, like a
			// process supervisor would — but only a few times, so a
			// kill-probability-1 worker cannot single-handedly burn a
			// shard's whole dispatch-attempt budget while the healthy
			// workers are busy. Clean shutdown ends the loop.
			for respawns := 0; ctx.Err() == nil && respawns < 4; respawns++ {
				err := shard.RunWorker(ctx, shard.WorkerOptions{ID: id, Addr: coord.Addr(), Plan: plan})
				if err == nil || !errors.Is(err, shard.ErrKilled) {
					return
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(20 * time.Millisecond):
				}
			}
		}()
	}
	if err := coord.WaitForWorkers(ctx, n); err != nil {
		t.Fatalf("workers: %v", err)
	}
	return coord
}

// TestDistributedChainMatchesLocal is the fabric's core differential
// guarantee on a real kernel, without faults: a multi-worker run's
// digest vector is bit-identical to the single-process execution.
func TestDistributedChainMatchesLocal(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	coord := testFabric(t, ctx, 3, nil)

	local, localOps, err := LocalDigests(ctx, "chain", "small", 42)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	res, err := coord.RunJob(ctx, shard.JobSpec{
		ID: coord.NextJobID(), Kernel: "chain", Size: "small", Seed: 42,
		NumTasks: len(local), NumShards: 12,
	})
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	for i := range local {
		if res.Digests[i] != local[i] {
			t.Fatalf("task %d digest diverged: dist=%x local=%x", i, res.Digests[i], local[i])
		}
	}
	if res.Ops != localOps {
		t.Fatalf("ops diverged: dist=%d local=%d", res.Ops, localOps)
	}
}

// TestDistributedSuiteUnderChaosBitIdentical is the end-to-end chaos
// differential: a RunSuite over the fabric with one worker being
// killed (and respawned), one stalling every shard, and one dropping
// its connection after computing, must (a) recover — nonzero
// rescheduled counters — and (b) produce results bit-identical to the
// in-process run, which Verify asserts per kernel and the fingerprint
// comparison asserts across runs.
func TestDistributedSuiteUnderChaosBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential skipped in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	run := func(specs map[string]string) ([]KernelOutcome, *obs.Observer) {
		coord := testFabric(t, ctx, 3, specs)
		observer := obs.NewObserver()
		benches := mustBenches(t, "chain", "spoa")
		outcomes := RunSuite(ctx, benches, SuiteConfig{
			Size: Small, Seed: 42, Threads: 1,
			Policy: PolicyFor(Small),
			Obs:    observer,
			Dist:   &DistConfig{Fabric: coord, Shards: 12, Verify: true},
		})
		coord.Close()
		return outcomes, observer
	}

	clean, _ := run(nil)
	chaotic, observer := run(map[string]string{
		"w1": "killworker:w1:1",    // dies on its first shard, forever (respawned each time)
		"w2": "slowshard:w2:250ms", // straggles into the hedging path
		"w3": "dropconn:w3:0.4",    // loses computed results to partitions
	})

	for i := range chaotic {
		name := chaotic[i].Info.Name
		if chaotic[i].Status != StatusOK {
			t.Fatalf("%s under chaos: %s: %v", name, chaotic[i].Status, chaotic[i].Err)
		}
		if chaotic[i].Shard == nil {
			t.Fatalf("%s did not run on the fabric", name)
		}
		// Verify=true already proved each run bit-identical to local;
		// the fingerprints must therefore agree across runs too.
		if chaotic[i].Fingerprint != clean[i].Fingerprint {
			t.Fatalf("%s fingerprint diverged: chaos=%016x clean=%016x",
				name, chaotic[i].Fingerprint, clean[i].Fingerprint)
		}
	}

	var resched, lost uint64
	for i := range chaotic {
		s := chaotic[i].Shard
		resched += s.Rescheduled
		lost += s.Lost
	}
	if resched == 0 {
		t.Fatalf("chaos run rescheduled nothing; w1 deaths should force reschedules")
	}
	if lost == 0 {
		t.Fatalf("chaos run lost nothing; killed workers should lose shards")
	}

	// The same counters must surface through the obs registry (they are
	// what the NDJSON export and the CI chaos smoke assert on).
	var counterResched float64
	for _, m := range observer.Metrics.Snapshot() {
		if m.Name == "shard.rescheduled" {
			counterResched += m.Value
		}
	}
	if counterResched == 0 {
		t.Fatalf("obs counter shard.rescheduled is zero despite %d reschedules", resched)
	}
}

// TestDistributedSuiteFallsBackForUnshardedKernels checks graceful
// degradation in the other direction: kernels without executors run
// in-process even when a fabric is attached, and still succeed.
func TestDistributedSuiteFallsBackForUnshardedKernels(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	coord := testFabric(t, ctx, 1, nil)
	benches := mustBenches(t, "kmer-cnt", "chain") // kmer-cnt has no executor
	outcomes := RunSuite(ctx, benches, SuiteConfig{
		Size: Small, Seed: 42, Threads: 1,
		Policy: PolicyFor(Small),
		Dist:   &DistConfig{Fabric: coord, Shards: 6},
	})
	if len(outcomes) != 2 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	for i := range outcomes {
		if outcomes[i].Status != StatusOK {
			t.Fatalf("%s: %s: %v", outcomes[i].Info.Name, outcomes[i].Status, outcomes[i].Err)
		}
	}
	if outcomes[0].Shard != nil {
		t.Fatal("kmer-cnt claims to have run distributed without an executor")
	}
	if outcomes[1].Shard == nil {
		t.Fatal("chain did not run on the fabric")
	}
}

// TestDistributedJobFailureDegradesGracefully: when the fabric cannot
// finish a kernel (worker pool gone, attempts exhausted), the kernel
// is reported failed and the remaining kernels still run in order.
func TestDistributedJobFailureDegradesGracefully(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	coord := shard.NewCoordinator(shard.Options{
		NoWorkerGrace: 200 * time.Millisecond, // no workers will ever join
	})
	if err := coord.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	benches := mustBenches(t, "chain", "kmer-cnt")
	outcomes := RunSuite(ctx, benches, SuiteConfig{
		Size: Small, Seed: 42, Threads: 1,
		Policy: PolicyFor(Small),
		Dist:   &DistConfig{Fabric: coord, Shards: 4},
	})
	if outcomes[0].Status != StatusFailed {
		t.Fatalf("chain = %s, want failed (starved fabric)", outcomes[0].Status)
	}
	if !errors.Is(outcomes[0].Err, shard.ErrNoWorkers) {
		t.Fatalf("chain err = %v, want ErrNoWorkers", outcomes[0].Err)
	}
	if outcomes[1].Status != StatusOK {
		t.Fatalf("kmer-cnt = %s, want ok after earlier dist failure", outcomes[1].Status)
	}
}

func mustBenches(t *testing.T, names ...string) []Benchmark {
	t.Helper()
	benches := make([]Benchmark, 0, len(names))
	for _, n := range names {
		b, err := ByName(n)
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		benches = append(benches, b)
	}
	return benches
}
