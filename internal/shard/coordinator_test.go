package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// The synthetic executor: Prepare parses the size string as the task
// count, and a task's digest is a pure function of (seed, task), so
// tests can compute the expected digest vector without running
// anything.

type synthExec struct {
	n    int
	seed int64
	fail bool // every RunTask errors
	skew int  // Prepare reports this many more tasks than Tasks does
}

// synthPrepares counts synthExec.Prepare calls, so a test can tell a
// worker reusing its prepared executor from one building it again.
var synthPrepares atomic.Int64

func (e *synthExec) Tasks(size string) (int, error) {
	n, err := strconv.Atoi(size)
	if err != nil {
		return 0, fmt.Errorf("synth: bad size %q", size)
	}
	return n, nil
}

func (e *synthExec) Prepare(size string, seed int64) (int, error) {
	synthPrepares.Add(1)
	n, err := e.Tasks(size)
	if err != nil {
		return 0, err
	}
	e.n, e.seed = n+e.skew, seed
	return e.n, nil
}

func (e *synthExec) RunTask(ctx context.Context, task int) (uint64, uint64, error) {
	if e.fail {
		return 0, 0, errors.New("synth: injected task failure")
	}
	return synthDigest(e.seed, task), 1, nil
}

func synthDigest(seed int64, task int) uint64 {
	return mix64(uint64(seed) ^ uint64(task)<<1 ^ 0xabcdef)
}

func synthDigests(seed int64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = synthDigest(seed, i)
	}
	return out
}

var registerSynthOnce sync.Once

func registerSynth() {
	registerSynthOnce.Do(func() {
		RegisterExecutor("synth", func() Executor { return &synthExec{} })
		RegisterExecutor("synth-fail", func() Executor { return &synthExec{fail: true} })
		RegisterExecutor("synth-skew", func() Executor { return &synthExec{skew: -1} })
	})
}

// testOptions shrinks the failure detectors to test scale.
func testOptions() Options {
	return Options{
		Lease:          250 * time.Millisecond,
		HeartbeatGrace: 250 * time.Millisecond,
		Sweep:          10 * time.Millisecond,
		MaxAttempts:    8,
		HedgeAge:       30 * time.Millisecond,
		HedgeQuantile:  0.9,
		HedgeFactor:    3,
		NoWorkerGrace:  5 * time.Second,
	}
}

func startCoordinator(t *testing.T, opts Options) *Coordinator {
	t.Helper()
	registerSynth()
	c := NewCoordinator(opts)
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

// startWorker runs an in-process worker goroutine and returns a
// channel carrying RunWorker's exit error.
func startWorker(t *testing.T, ctx context.Context, c *Coordinator, id string, plan *faultinject.Plan) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerOptions{
			ID: id, Addr: c.Addr(), Plan: plan,
			Heartbeat: 50 * time.Millisecond,
			PullDelay: 2 * time.Millisecond,
		})
	}()
	return done
}

func checkDigests(t *testing.T, res *JobResult, seed int64, n int) {
	t.Helper()
	want := synthDigests(seed, n)
	if len(res.Digests) != n {
		t.Fatalf("got %d digests, want %d", len(res.Digests), n)
	}
	for i := range want {
		if res.Digests[i] != want[i] {
			t.Fatalf("digest[%d] = %x, want %x", i, res.Digests[i], want[i])
		}
	}
	if fp := Fingerprint(want); res.Fingerprint != fp {
		t.Fatalf("fingerprint %x, want %x", res.Fingerprint, fp)
	}
}

func TestFabricRunsJob(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c := startCoordinator(t, testOptions())
	for i := 1; i <= 3; i++ {
		startWorker(t, ctx, c, fmt.Sprintf("w%d", i), nil)
	}
	if err := c.WaitForWorkers(ctx, 3); err != nil {
		t.Fatal(err)
	}

	const n, seed = 200, int64(7)
	res, err := c.RunJob(ctx, JobSpec{
		ID: c.NextJobID(), Kernel: "synth", Size: strconv.Itoa(n), Seed: seed,
		NumTasks: n, NumShards: 16,
	})
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	checkDigests(t, res, seed, n)
	if res.Ops != n {
		t.Fatalf("ops = %d, want %d", res.Ops, n)
	}
	s := res.Summary
	if s.Completed == 0 || s.Dispatched < s.Completed {
		t.Fatalf("odd summary: %+v", s)
	}
	if s.Workers < 1 || s.Workers > 3 {
		t.Fatalf("workers = %d", s.Workers)
	}
}

func TestFabricRunsBackToBackJobs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c := startCoordinator(t, testOptions())
	startWorker(t, ctx, c, "w1", nil)
	if err := c.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}
	for job := 0; job < 3; job++ {
		n := 40 + job
		seed := int64(100 + job)
		res, err := c.RunJob(ctx, JobSpec{
			ID: c.NextJobID(), Kernel: "synth", Size: strconv.Itoa(n), Seed: seed,
			NumTasks: n, NumShards: 4,
		})
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		checkDigests(t, res, seed, n)
	}
}

func TestFabricZeroTasks(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := startCoordinator(t, testOptions())
	res, err := c.RunJob(ctx, JobSpec{ID: c.NextJobID(), Kernel: "synth", Size: "0", NumTasks: 0, NumShards: 4})
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if len(res.Digests) != 0 || res.Summary.Dispatched != 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestWorkerKilledMidRunReschedules(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	c := startCoordinator(t, testOptions())

	// w1 dies the instant it receives its first shard; w2 and w3 carry
	// the job. The shard w1 took must be rescheduled and the digest
	// vector must come out identical to a clean run. Only w1 is
	// connected when the job starts, so the first pull is its own; the
	// survivors join once it has died holding that shard (the job
	// waits out the workerless gap under NoWorkerGrace).
	kill, err := faultinject.Parse("killworker:w1:1", 1)
	if err != nil {
		t.Fatal(err)
	}
	w1done := startWorker(t, ctx, c, "w1", kill)
	if err := c.WaitForWorkers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	const n, seed = 120, int64(3)
	resCh, errCh := runJobAsync(ctx, c, JobSpec{
		ID: c.NextJobID(), Kernel: "synth", Size: strconv.Itoa(n), Seed: seed,
		NumTasks: n, NumShards: 12,
	})
	if err := <-w1done; !errors.Is(err, ErrKilled) {
		t.Fatalf("w1 exit = %v, want ErrKilled", err)
	}
	startWorker(t, ctx, c, "w2", nil)
	startWorker(t, ctx, c, "w3", nil)

	res, err := <-resCh, <-errCh
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	checkDigests(t, res, seed, n)
	if res.Summary.Lost == 0 {
		t.Fatalf("expected lost shards from the killed worker: %+v", res.Summary)
	}
	if res.Summary.Rescheduled == 0 {
		t.Fatalf("expected reschedules after worker death: %+v", res.Summary)
	}
}

func TestShardAttemptsExhaustedFailsJob(t *testing.T) {
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
		ID: c.NextJobID(), Kernel: "synth-fail", Size: "10", NumTasks: 10, NumShards: 2,
	})
	var lost *ErrShardLost
	if !errors.As(err, &lost) {
		t.Fatalf("RunJob err = %v, want ErrShardLost", err)
	}
	if lost.Attempts < opts.MaxAttempts {
		t.Fatalf("failed after %d attempts, want >= %d", lost.Attempts, opts.MaxAttempts)
	}

	// The fabric must still be usable: the next job on the same
	// coordinator succeeds.
	res, err := c.RunJob(ctx, JobSpec{
		ID: c.NextJobID(), Kernel: "synth", Size: "30", Seed: 9, NumTasks: 30, NumShards: 3,
	})
	if err != nil {
		t.Fatalf("job after failed job: %v", err)
	}
	checkDigests(t, res, 9, 30)
}

func TestNoWorkersFailsJobAfterGrace(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	opts := testOptions()
	opts.NoWorkerGrace = 150 * time.Millisecond
	c := startCoordinator(t, opts)
	_, err := c.RunJob(ctx, JobSpec{ID: c.NextJobID(), Kernel: "synth", Size: "10", NumTasks: 10, NumShards: 2})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("RunJob err = %v, want ErrNoWorkers", err)
	}
}

func TestRunJobHonorsContextCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := startCoordinator(t, testOptions())
	jctx, jcancel := context.WithCancel(ctx)
	go func() {
		time.Sleep(50 * time.Millisecond)
		jcancel()
	}()
	_, err := c.RunJob(jctx, JobSpec{ID: c.NextJobID(), Kernel: "synth", Size: "10", NumTasks: 10, NumShards: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunJob err = %v, want context.Canceled", err)
	}
}

func TestCoordinatorCloseDrainsWorkers(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	registerSynth()
	c := NewCoordinator(testOptions())
	if err := c.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	w1 := startWorker(t, ctx, c, "w1", nil)
	w2 := startWorker(t, ctx, c, "w2", nil)
	if err := c.WaitForWorkers(ctx, 2); err != nil {
		t.Fatal(err)
	}
	c.Close()
	for i, ch := range []<-chan error{w1, w2} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("worker %d exit = %v, want clean drain", i+1, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("worker %d did not drain after Close", i+1)
		}
	}
}

// ---- raw-protocol clients: deterministic control over frame order ----

type rawClient struct {
	t    *testing.T
	conn net.Conn
	id   string
}

func dialRaw(t *testing.T, addr, id string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	c := &rawClient{t: t, conn: conn, id: id}
	c.send(&Msg{Type: MsgHello, Worker: id})
	if ack := c.recv(); ack.Type != MsgHelloAck {
		t.Fatalf("%s: got %s, want hello-ack", id, ack.Type)
	}
	return c
}

func (c *rawClient) send(m *Msg) {
	c.t.Helper()
	if err := writeMsg(c.conn, m); err != nil {
		c.t.Fatalf("%s: send %s: %v", c.id, m.Type, err)
	}
}

func (c *rawClient) recv() *Msg {
	c.t.Helper()
	var m Msg
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := readMsg(c.conn, &m); err != nil {
		c.t.Fatalf("%s: recv: %v", c.id, err)
	}
	return &m
}

// pull sends one Pull and returns the reply.
func (c *rawClient) pull() *Msg {
	c.send(&Msg{Type: MsgPull, Worker: c.id})
	return c.recv()
}

// pullAssign pulls until an Assign arrives.
func (c *rawClient) pullAssign() *Msg {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m := c.pull()
		if m.Type == MsgAssign {
			return m
		}
		if m.Type != MsgNoWork {
			c.t.Fatalf("%s: pull got %s", c.id, m.Type)
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("%s: no assignment within deadline", c.id)
	return nil
}

// finish computes the assignment's synthetic digests and reports them.
func (c *rawClient) finish(a *Msg) {
	c.t.Helper()
	tasks, err := DecodeTasks(a.Tasks)
	if err != nil {
		c.t.Fatalf("decode tasks: %v", err)
	}
	digests := make([]uint64, len(tasks))
	for i, task := range tasks {
		digests[i] = synthDigest(a.Seed, task)
	}
	c.send(&Msg{
		Type: MsgResult, Worker: c.id, Job: a.Job, Shard: a.Shard,
		Attempt: a.Attempt, Digests: digests, Ops: uint64(len(tasks)), ElapsedNs: 1000,
	})
}

// runJobAsync submits a job from a goroutine, returning result channels.
func runJobAsync(ctx context.Context, c *Coordinator, spec JobSpec) (<-chan *JobResult, <-chan error) {
	resCh := make(chan *JobResult, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := c.RunJob(ctx, spec)
		resCh <- res
		errCh <- err
	}()
	return resCh, errCh
}

func TestLeaseExpiryReschedulesShard(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	opts := testOptions()
	opts.Lease = 120 * time.Millisecond
	opts.HeartbeatGrace = 10 * time.Second // isolate lease expiry from heartbeat death
	opts.HedgeAge = 10 * time.Second       // and from hedging
	c := startCoordinator(t, opts)

	// "hog" takes a shard and never reports, but keeps its connection
	// warm with Pull frames (which refresh the heartbeat clock without
	// extending leases). Its lease must expire and the shard must be
	// rescheduled onto "carrier".
	hog := dialRaw(t, c.Addr(), "hog")
	carrier := dialRaw(t, c.Addr(), "carrier")

	const n, seed = 60, int64(11)
	resCh, errCh := runJobAsync(ctx, c, JobSpec{
		ID: c.NextJobID(), Kernel: "synth", Size: strconv.Itoa(n), Seed: seed,
		NumTasks: n, NumShards: 3,
	})

	hogged := hog.pullAssign() // hog now holds one shard and sits on it

	done := make(chan struct{})
	go func() { // carrier completes everything it is offered, forever
		defer close(done)
		for ctx.Err() == nil {
			if writeMsg(carrier.conn, &Msg{Type: MsgPull, Worker: carrier.id}) != nil {
				return
			}
			var m Msg
			carrier.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if readMsg(carrier.conn, &m) != nil {
				return
			}
			switch m.Type {
			case MsgAssign:
				tasks, err := DecodeTasks(m.Tasks)
				if err != nil {
					return
				}
				digests := make([]uint64, len(tasks))
				for i, task := range tasks {
					digests[i] = synthDigest(m.Seed, task)
				}
				if writeMsg(carrier.conn, &Msg{
					Type: MsgResult, Worker: carrier.id, Job: m.Job, Shard: m.Shard,
					Attempt: m.Attempt, Digests: digests, Ops: uint64(len(tasks)), ElapsedNs: 1000,
				}) != nil {
					return
				}
			case MsgNoWork:
				select {
				case <-ctx.Done():
					return
				case <-time.After(5 * time.Millisecond):
				}
			default:
				return // shutdown
			}
		}
	}()
	// Keep the hog's heartbeat clock fresh without Heartbeat frames so
	// only the lease detector can fire.
	go func() {
		for ctx.Err() == nil {
			time.Sleep(40 * time.Millisecond)
			if err := writeMsg(hog.conn, &Msg{Type: MsgPull, Worker: "hog"}); err != nil {
				return
			}
			var m Msg
			hog.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if err := readMsg(hog.conn, &m); err != nil {
				return
			}
			if m.Type == MsgShutdown {
				return
			}
			if m.Type == MsgAssign {
				// Sit on hedges/reassignments too; the job must still
				// finish through the carrier.
				_ = m
			}
		}
	}()

	res, err := <-resCh, <-errCh
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	checkDigests(t, res, seed, n)
	if res.Summary.LeaseExpired == 0 {
		t.Fatalf("expected lease expiries (hogged shard %d): %+v", hogged.Shard, res.Summary)
	}
	if res.Summary.Rescheduled == 0 && res.Summary.Hedged == 0 {
		t.Fatalf("hogged shard neither rescheduled nor hedged: %+v", res.Summary)
	}
	cancel()
	<-done
}

func TestHedgeDuplicateFirstResultWins(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	opts := testOptions()
	opts.Lease = 5 * time.Second // leases never expire; only hedging acts
	opts.HedgeAge = 30 * time.Millisecond
	c := startCoordinator(t, opts)

	slow := dialRaw(t, c.Addr(), "slow")
	fast := dialRaw(t, c.Addr(), "fast")
	helper := dialRaw(t, c.Addr(), "helper")

	// A 3-shard job. slow takes shard A and stalls; fast takes B,
	// finishes it, then hedges A; slow's late result for A must count
	// as a duplicate (helper still holds C, keeping the job alive).
	const n, seed = 90, int64(5)
	resCh, errCh := runJobAsync(ctx, c, JobSpec{
		ID: c.NextJobID(), Kernel: "synth", Size: strconv.Itoa(n), Seed: seed,
		NumTasks: n, NumShards: 3,
	})

	aAssign := slow.pullAssign()
	bAssign := fast.pullAssign()
	cAssign := helper.pullAssign()
	if aAssign.Shard == bAssign.Shard || aAssign.Shard == cAssign.Shard || bAssign.Shard == cAssign.Shard {
		t.Fatalf("expected three distinct shards: %d %d %d", aAssign.Shard, bAssign.Shard, cAssign.Shard)
	}
	fast.finish(bAssign)
	time.Sleep(3 * opts.HedgeAge) // age shard A past the hedge threshold

	hedge := fast.pullAssign()
	if hedge.Shard != aAssign.Shard {
		t.Fatalf("hedge picked shard %d, want straggler %d", hedge.Shard, aAssign.Shard)
	}
	if hedge.Attempt <= aAssign.Attempt {
		t.Fatalf("hedge attempt %d not past original %d", hedge.Attempt, aAssign.Attempt)
	}
	fast.finish(hedge)   // first result wins for shard A
	slow.finish(aAssign) // late duplicate while shard C is still out

	// Give the duplicate a moment to be processed, then finish the job.
	time.Sleep(50 * time.Millisecond)
	helper.finish(cAssign)

	res, err := <-resCh, <-errCh
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	checkDigests(t, res, seed, n)
	s := res.Summary
	if s.Hedged != 1 {
		t.Fatalf("hedged = %d, want 1: %+v", s.Hedged, s)
	}
	if s.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1: %+v", s.Duplicates, s)
	}
	if s.Completed != 3 {
		t.Fatalf("completed = %d, want 3: %+v", s.Completed, s)
	}
}

func TestHeartbeatSilenceDeclaresWorkerDead(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	opts := testOptions()
	opts.Lease = 10 * time.Second // leases outlive the test: only heartbeat death can recover
	opts.HeartbeatGrace = 150 * time.Millisecond
	opts.HedgeAge = 10 * time.Second
	c := startCoordinator(t, opts)

	// Only the silent client is connected when the job starts, so it
	// is certain to be handed a shard; the live worker joins after that
	// and must end up running both.
	silent := dialRaw(t, c.Addr(), "silent")

	const n, seed = 40, int64(13)
	resCh, errCh := runJobAsync(ctx, c, JobSpec{
		ID: c.NextJobID(), Kernel: "synth", Size: strconv.Itoa(n), Seed: seed,
		NumTasks: n, NumShards: 2,
	})
	silent.pullAssign() // take a shard, then go completely quiet
	startWorker(t, ctx, c, "live", nil)

	res, err := <-resCh, <-errCh
	if err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	checkDigests(t, res, seed, n)
	if res.Summary.Lost == 0 {
		t.Fatalf("expected the silent worker's shard to be declared lost: %+v", res.Summary)
	}
}
