package shard

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
)

// runShardOnWorker hands w one assignment the way serve does and
// returns the result frame it wrote.
func runShardOnWorker(t *testing.T, w *worker, assign *Msg) *Msg {
	t.Helper()
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- w.executeShard(context.Background(), near, assign) }()
	var res Msg
	far.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err := readMsg(far, &res); err != nil {
		t.Fatalf("reading the worker's result: %v", err)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("executeShard: %v", err)
	}
	if res.Type != MsgResult || res.Job != assign.Job || res.Shard != assign.Shard {
		t.Fatalf("result frame %+v does not answer assignment %+v", res, assign)
	}
	return &res
}

// runJobOnWorker plays the coordinator for one whole job against a
// single worker and returns the task-ordered digest vector.
func runJobOnWorker(t *testing.T, w *worker, spec JobSpec) []uint64 {
	t.Helper()
	digests := make([]uint64, spec.NumTasks)
	for id, tasks := range Partition(spec.ID, spec.NumTasks, spec.NumShards) {
		if len(tasks) == 0 {
			continue
		}
		res := runShardOnWorker(t, w, &Msg{
			Type: MsgAssign, Job: spec.ID, Kernel: spec.Kernel, Size: spec.Size, Seed: spec.Seed,
			Shard: id, Attempt: 1, Tasks: EncodeTasks(tasks), NumTasks: spec.NumTasks,
		})
		if res.Err != "" || len(res.Digests) != len(tasks) {
			t.Fatalf("shard %d: err %q, %d digests for %d tasks", id, res.Err, len(res.Digests), len(tasks))
		}
		for i, task := range tasks {
			digests[task] = res.Digests[i]
		}
	}
	return digests
}

func testWorker() *worker {
	registerSynth()
	opts := WorkerOptions{ID: "w", Retry: resilience.Policy{Attempts: 1}}
	return &worker{opts: opts.withDefaults()}
}

// TestWorkerFailsShardOnTaskCountMismatch: a worker whose Prepare
// builds a different number of tasks than the assignment carries must
// answer with an error naming both numbers — not index past its
// dataset, and not run a partial task set.
func TestWorkerFailsShardOnTaskCountMismatch(t *testing.T) {
	w := testWorker()
	assign := &Msg{
		Type: MsgAssign, Job: 1, Kernel: "synth-skew", Size: "10", Seed: 3,
		Shard: 0, Attempt: 1, Tasks: EncodeTasks([]int{0, 4, 9}), NumTasks: 10,
	}
	for attempt := 0; attempt < 2; attempt++ { // the verdict holds for every shard of the job, not just the first
		res := runShardOnWorker(t, w, assign)
		if !strings.Contains(res.Err, "prepared 9 tasks") || !strings.Contains(res.Err, "assignment says 10") {
			t.Fatalf("Err = %q, want both task counts named", res.Err)
		}
		if len(res.Digests) != 0 {
			t.Fatalf("mismatched shard still returned %d digests", len(res.Digests))
		}
	}

	// A task index the job does not have is refused the same way.
	assign = &Msg{
		Type: MsgAssign, Job: 2, Kernel: "synth", Size: "10", Seed: 3,
		Shard: 0, Attempt: 1, Tasks: EncodeTasks([]int{2, 10}), NumTasks: 10,
	}
	if res := runShardOnWorker(t, w, assign); !strings.Contains(res.Err, "task 10 outside the job's 10 tasks") {
		t.Fatalf("Err = %q, want the out-of-range task named", res.Err)
	}
}

// TestTaskCountMismatchFailsJobCleanly is the same disagreement seen
// from the coordinator: the job ends in ErrShardLost carrying the
// worker's explanation, and the fabric runs the next job.
func TestTaskCountMismatchFailsJobCleanly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	opts := testOptions()
	opts.MaxAttempts = 2
	c := startCoordinator(t, opts)
	startWorker(t, ctx, c, "w1", nil)
	if err := c.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	_, err := c.RunJob(ctx, JobSpec{
		ID: c.NextJobID(), Kernel: "synth-skew", Size: "12", NumTasks: 12, NumShards: 3,
	})
	var lost *ErrShardLost
	if !errors.As(err, &lost) {
		t.Fatalf("RunJob err = %v, want ErrShardLost", err)
	}
	if !strings.Contains(lost.Cause, "prepared 11 tasks") || !strings.Contains(err.Error(), "assignment says 12") {
		t.Fatalf("job error %q does not carry the worker's task counts", err)
	}
	res, err := c.RunJob(ctx, JobSpec{
		ID: c.NextJobID(), Kernel: "synth", Size: "30", Seed: 9, NumTasks: 30, NumShards: 3,
	})
	if err != nil {
		t.Fatalf("job after the mismatched job: %v", err)
	}
	checkDigests(t, res, 9, 30)
}

// TestWorkerHoldsOneDataset: a worker serves jobs one after another
// and a finished job's shards never come back, so it keeps the
// prepared executor of the current job key only. Two back-to-back jobs
// must both fingerprint correctly, every shard of a job must share one
// Prepare, and the first job's executor must be gone once the second
// job's first shard arrives.
func TestWorkerHoldsOneDataset(t *testing.T) {
	w := testWorker()
	jobA := JobSpec{ID: 1, Kernel: "synth", Size: "40", Seed: 100, NumTasks: 40, NumShards: 4}
	jobB := JobSpec{ID: 2, Kernel: "synth", Size: "55", Seed: 200, NumTasks: 55, NumShards: 4}
	before := synthPrepares.Load()

	if got, want := Fingerprint(runJobOnWorker(t, w, jobA)), Fingerprint(synthDigests(jobA.Seed, jobA.NumTasks)); got != want {
		t.Fatalf("job A fingerprint %x, want %x", got, want)
	}
	execA := w.cur
	if n := synthPrepares.Load() - before; n != 1 {
		t.Fatalf("job A's shards ran %d Prepares, want 1", n)
	}
	if got, want := Fingerprint(runJobOnWorker(t, w, jobB)), Fingerprint(synthDigests(jobB.Seed, jobB.NumTasks)); got != want {
		t.Fatalf("job B fingerprint %x, want %x", got, want)
	}
	if n := synthPrepares.Load() - before; n != 2 {
		t.Fatalf("two jobs ran %d Prepares, want 2", n)
	}
	wantKey := jobKey{jobB.Kernel, jobB.Size, jobB.Seed}
	if w.curKey != wantKey || w.cur == execA || w.curTasks != jobB.NumTasks {
		t.Fatalf("worker holds key %+v (%d tasks), want only %+v", w.curKey, w.curTasks, wantKey)
	}
}
