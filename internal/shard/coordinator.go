package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/digest"
	"repro/internal/obs"
)

// Options tunes the coordinator's failure detectors. The defaults suit
// real runs (multi-second kernels, worker processes on one host);
// tests shrink everything to tens of milliseconds.
type Options struct {
	// Lease is how long a worker owns a dispatched shard before the
	// coordinator may reassign it. Heartbeats extend the lease, so the
	// lease only expires on a worker that is dead, hung, or partitioned.
	Lease time.Duration
	// HeartbeatGrace is how long a silent worker stays trusted. Workers
	// are told to beat every Lease/3; missing three beats in a row
	// declares the worker dead and reschedules everything it holds.
	HeartbeatGrace time.Duration
	// Sweep is the failure-detector tick: how often leases, heartbeats
	// and job liveness are checked.
	Sweep time.Duration
	// MaxAttempts bounds how many times one shard may be dispatched
	// (initial dispatch + reschedules + hedges). Exhausting it fails
	// the job: the fabric degrades rather than spinning forever.
	MaxAttempts int
	// HedgeAge is the minimum time a shard must have been outstanding
	// before it is eligible for hedged re-dispatch.
	HedgeAge time.Duration
	// HedgeQuantile/HedgeFactor set the straggler threshold: a shard is
	// hedged once its lease age exceeds HedgeFactor times the given
	// quantile of completed shard durations (and HedgeAge). Hedging
	// only happens when a worker asks for work and the pending queue is
	// empty, so it never steals capacity from first-dispatch work.
	HedgeQuantile float64
	HedgeFactor   float64
	// NoWorkerGrace fails a job that has had no live workers for this
	// long, so a suite whose worker pool died reports the kernel as
	// failed instead of hanging.
	NoWorkerGrace time.Duration
}

// DefaultOptions returns production-shaped failure-detector settings.
func DefaultOptions() Options {
	return Options{
		Lease:          2 * time.Second,
		HeartbeatGrace: 2 * time.Second,
		Sweep:          50 * time.Millisecond,
		MaxAttempts:    5,
		HedgeAge:       250 * time.Millisecond,
		HedgeQuantile:  0.9,
		HedgeFactor:    3,
		NoWorkerGrace:  10 * time.Second,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Lease <= 0 {
		o.Lease = d.Lease
	}
	if o.HeartbeatGrace <= 0 {
		o.HeartbeatGrace = d.HeartbeatGrace
	}
	if o.Sweep <= 0 {
		o.Sweep = d.Sweep
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = d.MaxAttempts
	}
	if o.HedgeAge <= 0 {
		o.HedgeAge = d.HedgeAge
	}
	if o.HedgeQuantile <= 0 || o.HedgeQuantile >= 1 {
		o.HedgeQuantile = d.HedgeQuantile
	}
	if o.HedgeFactor <= 0 {
		o.HedgeFactor = d.HedgeFactor
	}
	if o.NoWorkerGrace <= 0 {
		o.NoWorkerGrace = d.NoWorkerGrace
	}
	return o
}

// JobSpec names one kernel execution to distribute.
type JobSpec struct {
	ID        uint64
	Kernel    string
	Size      string
	Seed      int64
	NumTasks  int
	NumShards int
}

// Summary is the shard lifecycle accounting for one job; every field
// is also mirrored into obs counters (shard.dispatched, ...) labelled
// by kernel as it increments.
type Summary struct {
	Shards       int    `json:"shards"`
	Workers      int    `json:"workers"` // distinct workers that completed at least one shard
	Dispatched   uint64 `json:"dispatched"`
	Completed    uint64 `json:"completed"`
	Rescheduled  uint64 `json:"rescheduled"`
	Hedged       uint64 `json:"hedged"`
	Lost         uint64 `json:"lost"`
	LeaseExpired uint64 `json:"lease_expired"`
	Duplicates   uint64 `json:"duplicates"`
	Failed       uint64 `json:"failed"` // worker-reported shard errors
}

// JobResult is a completed job: per-task digests in task order, the
// work-unit total, per-shard wall times, and the lifecycle summary.
// Fingerprint folds the digest vector into one value — two runs of the
// same job match iff their fingerprints match.
type JobResult struct {
	Digests     []uint64
	Ops         uint64
	ShardNs     []int64 // per-shard worker-side execution time
	Summary     Summary
	Fingerprint uint64
}

// ErrShardLost reports a shard whose dispatch attempts were exhausted.
// Cause is the last error a worker reported for it, empty when every
// attempt was lost to a dead worker or an expired lease.
type ErrShardLost struct {
	Kernel   string
	Shard    int
	Attempts int
	Cause    string
}

func (e *ErrShardLost) Error() string {
	msg := fmt.Sprintf("shard: %s shard %d lost after %d dispatch attempt(s)", e.Kernel, e.Shard, e.Attempts)
	if e.Cause != "" {
		msg += ": " + e.Cause
	}
	return msg
}

// ErrNoWorkers reports a job starved of workers past the grace window.
var ErrNoWorkers = errors.New("shard: no live workers")

type lease struct {
	worker   string
	deadline time.Time
	started  time.Time
	attempt  int
	hedged   bool
}

type shardState struct {
	id      int
	tasks   []int
	wire    []byte // EncodeTasks(tasks), computed once
	attempt int    // dispatch attempts so far
	done    bool
	queued  bool
	digests []uint64
	ops     uint64
	elapsed int64
	lastErr string // last worker-reported error, for ErrShardLost
	leases  []lease
}

type jobState struct {
	spec        JobSpec
	shards      []*shardState
	pending     []int // shard IDs awaiting (re)dispatch, FIFO
	remaining   int
	durations   []time.Duration // completed shard wall times, for the hedge quantile
	summary     Summary
	completedBy map[string]bool
	done        chan struct{}
	err         error
	starved     time.Time // first sweep instant with zero live workers; zero when workers exist
}

type workerState struct {
	id       string
	conn     net.Conn
	writeMu  sync.Mutex // serializes frames to conn (serveConn replies vs Close's shutdown)
	lastBeat time.Time
	shards   map[int]bool // shard IDs currently leased to this worker
	gone     bool
}

// send writes one frame to the worker, serialized per connection.
func (w *workerState) send(m *Msg) error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	return writeMsg(w.conn, m)
}

// Coordinator owns the listener, the worker table, and at most one
// active job. The suite runs kernels serially, so a single-job fabric
// matches the driver exactly; workers outlive jobs and keep polling
// between kernels.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	ln      net.Listener
	workers map[string]*workerState
	job     *jobState
	o       *obs.Observer
	label   string
	closed  bool
	nextJob uint64

	wg sync.WaitGroup
}

// NewCoordinator returns an unstarted coordinator.
func NewCoordinator(opts Options) *Coordinator {
	return &Coordinator{opts: opts.withDefaults(), workers: map[string]*workerState{}}
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral local port)
// and begins accepting workers and sweeping failure detectors.
func (c *Coordinator) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("shard: coordinator listen: %w", err)
	}
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(2)
	go c.acceptLoop(ln)
	go c.sweepLoop()
	return nil
}

// Addr reports the listen address workers should dial.
func (c *Coordinator) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Close shuts the fabric down: the listener stops, connected workers
// are told to shut down, and any active job fails.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	ln := c.ln
	var conns []*workerState
	for _, w := range c.workers {
		if !w.gone {
			conns = append(conns, w)
		}
	}
	c.failJobLocked(errors.New("shard: coordinator closed"))
	c.mu.Unlock()
	for _, w := range conns {
		w.send(&Msg{Type: MsgShutdown})
		w.conn.Close()
	}
	if ln != nil {
		ln.Close()
	}
	c.wg.Wait()
}

// Workers reports the live worker count.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if !w.gone {
			n++
		}
	}
	return n
}

// WaitForWorkers blocks until n workers have joined or ctx expires.
func (c *Coordinator) WaitForWorkers(ctx context.Context, n int) error {
	for {
		if c.Workers() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("shard: waiting for %d worker(s): %w", n, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// NextJobID hands out suite-unique job IDs.
func (c *Coordinator) NextJobID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextJob++
	return c.nextJob
}

// RunJob partitions the spec's task range into shards by consistent
// hashing, leases shards to pulling workers, and blocks until every
// shard completed (returning the merged, task-ordered digest vector)
// or the job failed: attempts exhausted on some shard, worker pool
// starved past the grace window, or ctx cancelled. An observer in ctx
// receives the shard lifecycle counters labelled by kernel.
func (c *Coordinator) RunJob(ctx context.Context, spec JobSpec) (*JobResult, error) {
	if spec.NumShards < 1 {
		spec.NumShards = 1
	}
	parts := Partition(spec.ID, spec.NumTasks, spec.NumShards)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.New("shard: coordinator closed")
	}
	if c.job != nil {
		c.mu.Unlock()
		return nil, errors.New("shard: a job is already running")
	}
	j := &jobState{
		spec:        spec,
		done:        make(chan struct{}),
		completedBy: map[string]bool{},
	}
	j.summary.Shards = spec.NumShards
	for id, tasks := range parts {
		s := &shardState{id: id, tasks: tasks, wire: EncodeTasks(tasks)}
		if len(tasks) == 0 {
			s.done = true // empty shards are trivially complete
		} else {
			j.pending = append(j.pending, id)
			s.queued = true
			j.remaining++
		}
		j.shards = append(j.shards, s)
	}
	c.job = j
	c.o = obs.From(ctx)
	c.label = spec.Kernel
	finished := j.remaining == 0
	c.mu.Unlock()

	if finished {
		c.mu.Lock()
		c.finishJobLocked(j)
		c.mu.Unlock()
	}

	select {
	case <-ctx.Done():
		c.mu.Lock()
		c.failJobLocked(ctx.Err())
		c.mu.Unlock()
		<-j.done
	case <-j.done:
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	return c.assembleLocked(j), nil
}

// assembleLocked merges completed shard results into task order.
func (c *Coordinator) assembleLocked(j *jobState) *JobResult {
	res := &JobResult{Digests: make([]uint64, j.spec.NumTasks), Summary: j.summary}
	res.Summary.Workers = len(j.completedBy)
	for _, s := range j.shards {
		for i, t := range s.tasks {
			res.Digests[t] = s.digests[i]
		}
		res.Ops += s.ops
		if len(s.tasks) > 0 {
			res.ShardNs = append(res.ShardNs, s.elapsed)
		}
	}
	res.Fingerprint = Fingerprint(res.Digests)
	return res
}

// Fingerprint folds a digest vector into a single order-sensitive
// value (FNV-1a over the 64-bit words).
func Fingerprint(digests []uint64) uint64 {
	h := digest.Seed
	for _, d := range digests {
		h = digest.Word(h, d)
	}
	return h
}

// count bumps both the job summary field and the obs counter.
func (c *Coordinator) count(field *uint64, metric string, n uint64) {
	*field += n
	c.o.Counter(metric, c.label).Add(n)
}

// ---- connection handling ----

func (c *Coordinator) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.wg.Add(1)
		go c.serveConn(conn)
	}
}

// serveConn drives one worker connection: a Hello registers the
// worker, then Pull/Result/Heartbeat frames are handled sequentially.
// Any read error — including the abrupt close of a killed worker
// process — unregisters the worker and reschedules everything it held.
func (c *Coordinator) serveConn(conn net.Conn) {
	defer c.wg.Done()
	// Bound the handshake: a connection that never says Hello (a dialer
	// that died mid-join, a port scanner) must not pin this goroutine —
	// Close waits on it.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hello Msg
	if err := readMsg(conn, &hello); err != nil || hello.Type != MsgHello || hello.Worker == "" {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	id := hello.Worker
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	if old, ok := c.workers[id]; ok && !old.gone {
		// Same ID reconnecting (dropconn recovery): the old connection is
		// dead even if its close has not surfaced yet. Drop it and
		// reschedule whatever the previous incarnation held.
		old.conn.Close()
		c.workerGoneLocked(old, "replaced")
	}
	w := &workerState{id: id, conn: conn, lastBeat: time.Now(), shards: map[int]bool{}}
	c.workers[id] = w
	c.o.Counter("shard.workers_joined", c.label).Inc()
	c.mu.Unlock()

	w.send(&Msg{Type: MsgHelloAck, LeaseMs: c.opts.Lease.Milliseconds()})

	for {
		var m Msg
		if err := readMsg(conn, &m); err != nil {
			break
		}
		c.mu.Lock()
		if w.gone {
			c.mu.Unlock()
			break
		}
		w.lastBeat = time.Now()
		var reply *Msg
		switch m.Type {
		case MsgPull:
			reply = c.assignLocked(w)
		case MsgResult:
			c.handleResultLocked(w, &m)
		case MsgHeartbeat:
			c.extendLeasesLocked(w)
		}
		closed := c.closed
		c.mu.Unlock()
		if closed {
			w.send(&Msg{Type: MsgShutdown})
			break
		}
		if reply != nil {
			if err := w.send(reply); err != nil {
				break
			}
		}
	}
	conn.Close()
	c.mu.Lock()
	if !w.gone {
		c.workerGoneLocked(w, "disconnected")
	}
	c.mu.Unlock()
}

// assignLocked picks work for a pulling worker: the oldest pending
// shard first; with an empty queue, a hedged duplicate of the worst
// straggler the worker is not already running. Dispatch attempts are
// bounded by MaxAttempts across reschedules and hedges combined.
func (c *Coordinator) assignLocked(w *workerState) *Msg {
	j := c.job
	if j == nil || j.err != nil || j.remaining == 0 {
		return &Msg{Type: MsgNoWork}
	}
	var s *shardState
	hedge := false
	for len(j.pending) > 0 {
		id := j.pending[0]
		j.pending = j.pending[1:]
		cand := j.shards[id]
		cand.queued = false
		if !cand.done {
			s = cand
			break
		}
	}
	if s == nil {
		// Pending queue drained: offer a hedged duplicate of the worst
		// straggler instead of leaving the worker idle.
		s = c.hedgeCandidateLocked(j, w)
		if s == nil {
			return &Msg{Type: MsgNoWork}
		}
		hedge = true
	}
	s.attempt++
	now := time.Now()
	s.leases = append(s.leases, lease{
		worker: w.id, deadline: now.Add(c.opts.Lease), started: now,
		attempt: s.attempt, hedged: hedge,
	})
	w.shards[s.id] = true
	c.count(&j.summary.Dispatched, "shard.dispatched", 1)
	if hedge {
		c.count(&j.summary.Hedged, "shard.hedged", 1)
	}
	return &Msg{
		Type: MsgAssign, Job: j.spec.ID, Kernel: j.spec.Kernel,
		Size: j.spec.Size, Seed: j.spec.Seed, Shard: s.id,
		Attempt: s.attempt, Tasks: s.wire, NumTasks: j.spec.NumTasks,
		LeaseMs: c.opts.Lease.Milliseconds(),
	}
}

// hedgeCandidateLocked returns the oldest outstanding shard whose
// primary lease has aged past the straggler threshold and which the
// pulling worker is not already executing, or nil.
func (c *Coordinator) hedgeCandidateLocked(j *jobState, w *workerState) *shardState {
	threshold := c.hedgeThresholdLocked(j)
	now := time.Now()
	var best *shardState
	var bestAge time.Duration
	for _, s := range j.shards {
		if s.done || len(s.leases) == 0 || s.attempt >= c.opts.MaxAttempts {
			continue
		}
		mine := false
		oldest := time.Duration(0)
		for _, l := range s.leases {
			if l.worker == w.id {
				mine = true
			}
			if age := now.Sub(l.started); age > oldest {
				oldest = age
			}
		}
		if mine || oldest < threshold {
			continue
		}
		if best == nil || oldest > bestAge {
			best, bestAge = s, oldest
		}
	}
	return best
}

// hedgeThresholdLocked computes the straggler cutoff from completed
// shard durations; with no completions yet it falls back to HedgeAge.
func (c *Coordinator) hedgeThresholdLocked(j *jobState) time.Duration {
	th := c.opts.HedgeAge
	if n := len(j.durations); n > 0 {
		sorted := append([]time.Duration(nil), j.durations...)
		for i := 1; i < len(sorted); i++ { // insertion sort: n is small
			for k := i; k > 0 && sorted[k] < sorted[k-1]; k-- {
				sorted[k], sorted[k-1] = sorted[k-1], sorted[k]
			}
		}
		idx := int(c.opts.HedgeQuantile * float64(n))
		if idx >= n {
			idx = n - 1
		}
		if q := time.Duration(c.opts.HedgeFactor * float64(sorted[idx])); q > th {
			th = q
		}
	}
	return th
}

// handleResultLocked applies one shard result. First result wins:
// whichever attempt reports first — primary, reschedule, or hedge —
// completes the shard, and every later report of the same shard is
// deduplicated (results are bit-identical by construction, so there is
// nothing to reconcile). A worker-side error releases only that
// worker's lease and requeues the shard.
func (c *Coordinator) handleResultLocked(w *workerState, m *Msg) {
	j := c.job
	if j == nil || j.spec.ID != m.Job || m.Shard < 0 || m.Shard >= len(j.shards) {
		return
	}
	s := j.shards[m.Shard]
	if s.done {
		c.count(&j.summary.Duplicates, "shard.duplicate", 1)
		return
	}
	c.releaseLeaseLocked(s, w.id)
	if m.Err != "" {
		s.lastErr = m.Err
		c.count(&j.summary.Failed, "shard.failed", 1)
		c.requeueLocked(j, s, "error")
		return
	}
	if len(m.Digests) != len(s.tasks) {
		c.count(&j.summary.Failed, "shard.failed", 1)
		c.requeueLocked(j, s, "short-result")
		return
	}
	s.done = true
	s.digests = m.Digests
	s.ops = m.Ops
	s.elapsed = m.ElapsedNs
	// The shard may still be leased to hedge/stale workers; drop those
	// leases — their eventual results dedup on arrival.
	for i := range s.leases {
		if lw := c.workers[s.leases[i].worker]; lw != nil {
			delete(lw.shards, s.id)
		}
	}
	s.leases = nil
	j.remaining--
	j.durations = append(j.durations, time.Duration(m.ElapsedNs))
	j.completedBy[w.id] = true
	c.count(&j.summary.Completed, "shard.completed", 1)
	c.o.Histogram("shard.duration_ns", c.label, "ns").Observe(float64(m.ElapsedNs))
	if j.remaining == 0 {
		c.finishJobLocked(j)
	}
}

// releaseLeaseLocked drops w's lease on s, if any.
func (c *Coordinator) releaseLeaseLocked(s *shardState, worker string) {
	keep := s.leases[:0]
	for _, l := range s.leases {
		if l.worker != worker {
			keep = append(keep, l)
		}
	}
	s.leases = keep
	if w := c.workers[worker]; w != nil {
		delete(w.shards, s.id)
	}
}

// requeueLocked puts an incomplete shard back on the pending queue
// unless its dispatch budget is exhausted, which fails the job.
func (c *Coordinator) requeueLocked(j *jobState, s *shardState, why string) {
	if s.done || s.queued || j.err != nil {
		return
	}
	if len(s.leases) > 0 {
		return // another lease is still live; let it run
	}
	if s.attempt >= c.opts.MaxAttempts {
		c.failJobLocked(&ErrShardLost{Kernel: j.spec.Kernel, Shard: s.id, Attempts: s.attempt, Cause: s.lastErr})
		return
	}
	s.queued = true
	j.pending = append(j.pending, s.id)
	c.count(&j.summary.Rescheduled, "shard.rescheduled", 1)
}

// extendLeasesLocked renews every lease the heartbeating worker holds.
func (c *Coordinator) extendLeasesLocked(w *workerState) {
	if c.job == nil {
		return
	}
	deadline := time.Now().Add(c.opts.Lease)
	for id := range w.shards {
		s := c.job.shards[id]
		for i := range s.leases {
			if s.leases[i].worker == w.id {
				s.leases[i].deadline = deadline
			}
		}
	}
}

// workerGoneLocked unregisters a dead worker and reschedules its
// shards.
func (c *Coordinator) workerGoneLocked(w *workerState, why string) {
	w.gone = true
	if c.workers[w.id] == w { // a reconnected incarnation may already own the ID
		delete(c.workers, w.id)
	}
	c.o.Counter("shard.workers_lost", c.label).Inc()
	j := c.job
	if j == nil {
		return
	}
	for id := range w.shards {
		s := j.shards[id]
		keep := s.leases[:0]
		for _, l := range s.leases {
			if l.worker != w.id {
				keep = append(keep, l)
			}
		}
		s.leases = keep
		if !s.done {
			c.count(&j.summary.Lost, "shard.lost", 1)
			c.requeueLocked(j, s, "worker-"+why)
		}
	}
	w.shards = map[int]bool{}
}

// ---- failure detection ----

func (c *Coordinator) sweepLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.Sweep)
	defer t.Stop()
	for range t.C {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		c.sweepLocked(time.Now())
		c.mu.Unlock()
	}
}

// sweepLocked runs the failure detectors: heartbeat-silent workers are
// declared dead, expired leases are revoked and their shards
// rescheduled, and a worker-starved job is failed after the grace
// window.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, w := range c.workers {
		if now.Sub(w.lastBeat) > c.opts.HeartbeatGrace {
			w.conn.Close() // unblocks the serveConn reader
			c.workerGoneLocked(w, "heartbeat-timeout")
		}
	}
	j := c.job
	if j == nil || j.err != nil {
		return
	}
	for _, s := range j.shards {
		if s.done || len(s.leases) == 0 {
			continue
		}
		keep := s.leases[:0]
		expired := 0
		for _, l := range s.leases {
			if now.After(l.deadline) {
				expired++
				if w := c.workers[l.worker]; w != nil {
					delete(w.shards, s.id)
				}
			} else {
				keep = append(keep, l)
			}
		}
		s.leases = keep
		if expired > 0 {
			c.count(&j.summary.LeaseExpired, "shard.lease_expired", uint64(expired))
			c.requeueLocked(j, s, "lease-expired")
		}
	}
	live := 0
	for _, w := range c.workers {
		if !w.gone {
			live++
		}
	}
	if live > 0 {
		j.starved = time.Time{}
	} else if j.starved.IsZero() {
		j.starved = now
	} else if now.Sub(j.starved) > c.opts.NoWorkerGrace {
		c.failJobLocked(fmt.Errorf("%w for %v while %d shard(s) incomplete",
			ErrNoWorkers, c.opts.NoWorkerGrace, j.remaining))
	}
}

// finishJobLocked completes the active job successfully.
func (c *Coordinator) finishJobLocked(j *jobState) {
	if c.job != j {
		return
	}
	c.job = nil
	close(j.done)
}

// failJobLocked fails the active job, releasing every lease.
func (c *Coordinator) failJobLocked(err error) {
	j := c.job
	if j == nil {
		return
	}
	j.err = err
	c.o.Counter("shard.jobs_failed", c.label).Inc()
	for _, w := range c.workers {
		w.shards = map[int]bool{}
	}
	c.job = nil
	close(j.done)
}
