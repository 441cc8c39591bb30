package shard

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestHammerCoordinatorStateMachine drives the coordinator's
// liveness/hedging state machine through sustained chaos — workers
// joining, dying by injection, dropping connections and rejoining
// under the same ID, hedges racing primaries into duplicate
// completions — across several back-to-back jobs, while
// asserting every job still assembles the exact digest vector. Run
// with -race; the point is as much the detector as the assertions.
func TestHammerCoordinatorStateMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer test skipped in -short mode")
	}
	registerSynth()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	opts := Options{
		Lease:         300 * time.Millisecond,
		MaxAttempts:   20,
		HedgeAge:      20 * time.Millisecond,
		NoWorkerGrace: 10 * time.Second,
	}
	c := NewCoordinator(opts)
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	// Three reliable workers guarantee forward progress.
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("steady%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			RunWorker(ctx, WorkerOptions{ID: id, Addr: c.Addr()})
		}()
	}
	// Three chaotic workers die and drop connections probabilistically
	// and are respawned under the same ID, exercising the replacement
	// and incarnation-fencing paths.
	for i := 1; i <= 3; i++ {
		id := fmt.Sprintf("chaos%d", i)
		plan, err := faultinject.Parse(
			fmt.Sprintf("killworker:%s:0.3,dropconn:%s:0.3", id, id), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				err := RunWorker(ctx, WorkerOptions{ID: id, Addr: c.Addr(), Plan: plan})
				if err == nil { // clean shutdown: fabric is draining
					return
				}
				if !errors.Is(err, ErrKilled) && ctx.Err() != nil {
					return
				}
				select { // respawn after a beat, like a supervisor would
				case <-ctx.Done():
					return
				case <-time.After(15 * time.Millisecond):
				}
			}
		}()
	}
	if err := c.WaitForWorkers(ctx, 3); err != nil {
		t.Fatal(err)
	}

	// Concurrent observers poking the read paths while jobs run.
	obsCtx, obsCancel := context.WithCancel(ctx)
	var obsWG sync.WaitGroup
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		for obsCtx.Err() == nil {
			_ = c.Workers()
			_ = c.Addr()
			time.Sleep(3 * time.Millisecond)
		}
	}()

	var summed Summary
	for job := 0; job < 5; job++ {
		n := 240 + 7*job
		seed := int64(1000 + job)
		res, err := c.RunJob(ctx, JobSpec{
			ID: c.NextJobID(), Kernel: "synth", Size: strconv.Itoa(n), Seed: seed,
			NumTasks: n, NumShards: 24,
		})
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		checkDigests(t, res, seed, n)
		s := res.Summary
		summed.Dispatched += s.Dispatched
		summed.Completed += s.Completed
		summed.Rescheduled += s.Rescheduled
		summed.Hedged += s.Hedged
		summed.Lost += s.Lost
		summed.Duplicates += s.Duplicates
	}
	t.Logf("hammer totals: %+v", summed)
	if summed.Completed == 0 || summed.Dispatched < summed.Completed {
		t.Fatalf("inconsistent totals: %+v", summed)
	}
	// With kill probability 0.3 per chaotic shard boundary across five
	// jobs, recovery paths fire essentially always; a zero here means
	// the chaos never reached the state machine.
	if summed.Lost == 0 && summed.Rescheduled == 0 {
		t.Fatalf("chaos produced no lost/rescheduled shards: %+v", summed)
	}

	obsCancel()
	obsWG.Wait()
	cancel()
	c.Close()
	wg.Wait()
}
