package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/resilience"
)

// ErrKilled is returned by RunWorker when a killworker fault fires:
// the worker abandoned its connection and everything it was executing,
// exactly as a SIGKILLed process would. cmd/gbench's worker mode turns
// it into an abrupt nonzero exit.
var ErrKilled = errors.New("shard: worker killed by fault injection")

// WorkerOptions configures one worker.
type WorkerOptions struct {
	ID   string
	Addr string
	// Plan, when non-nil, arms this worker's private fault plan
	// (killworker / slowshard / dropconn at shard boundaries, plus the
	// classic panic/delay/error kinds inside the task loop). Each
	// worker holds its own plan instance, so in-process fleets evaluate
	// faults without racing over package-global state.
	Plan *faultinject.Plan
}

const (
	// pullDelay is the idle re-poll interval after NoWork.
	pullDelay = 10 * time.Millisecond
	// reconnects bounds dial attempts after a lost connection.
	reconnects = 5
)

// worker is one connection-scoped execution loop.
type worker struct {
	opts   WorkerOptions
	conn   net.Conn
	wmu    sync.Mutex    // serializes result/pull frames with heartbeats
	joined bool          // completed a Hello handshake at least once
	beat   time.Duration // heartbeat interval: a third of the acknowledged lease

	// The one prepared executor this worker holds; see executor.
	cur      Executor
	curKey   jobKey
	curTasks int // what cur's Prepare reported
}

// jobKey names a prepared dataset: executors are deterministic in it.
type jobKey struct {
	kernel, size string
	seed         int64
}

// RunWorker connects to the coordinator at opts.Addr and processes
// shards until the coordinator says Shutdown, ctx is cancelled, or a
// killworker fault fires (ErrKilled). A lost connection is redialed
// with backoff up to reconnects times; an in-flight shard at the time
// of the loss is simply abandoned — the coordinator notices the lost
// connection and reschedules it, and if this worker already computed
// the result, the reschedule's duplicate is deduplicated upstream.
func RunWorker(ctx context.Context, opts WorkerOptions) error {
	w := &worker{opts: opts}
	defer w.closeConn()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.conn == nil {
			if err := w.connect(ctx); err != nil {
				if w.joined && ctx.Err() == nil {
					// The coordinator we once served is gone: the run is
					// over (or we are fenced off); drain out cleanly rather
					// than reporting the expected post-shutdown dial failure.
					return nil
				}
				return err
			}
		}
		err := w.serve(ctx)
		switch {
		case err == nil:
			return nil // clean shutdown
		case errors.Is(err, ErrKilled):
			return ErrKilled
		case ctx.Err() != nil:
			return ctx.Err()
		default:
			// Connection-level failure (dropconn fault, coordinator
			// restart, transient refusal): redial and rejoin.
			w.closeConn()
		}
	}
}

func (w *worker) closeConn() {
	if w.conn != nil {
		w.conn.Close()
		w.conn = nil
	}
}

// connect dials the coordinator, says Hello, and derives the
// heartbeat interval from the acknowledged lease.
func (w *worker) connect(ctx context.Context) error {
	var lastErr error
	for i := 0; i < reconnects; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		d := net.Dialer{Timeout: 2 * time.Second}
		conn, err := d.DialContext(ctx, "tcp", w.opts.Addr)
		if err != nil {
			lastErr = err
			if err := resilience.Sleep(ctx, time.Duration(i+1)*50*time.Millisecond); err != nil {
				return err
			}
			continue
		}
		if err := writeMsg(conn, &Msg{Type: MsgHello, Worker: w.opts.ID}); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		var ack Msg
		if err := readMsg(conn, &ack); err != nil || ack.Type != MsgHelloAck || ack.LeaseMs <= 0 {
			conn.Close()
			if err == nil {
				err = fmt.Errorf("shard: got %s with lease %dms, want a hello-ack with a lease", ack.Type, ack.LeaseMs)
			}
			lastErr = err
			continue
		}
		w.conn = conn
		w.joined = true
		w.beat = time.Duration(ack.LeaseMs) * time.Millisecond / 3
		return nil
	}
	return fmt.Errorf("shard: worker %s cannot reach coordinator %s: %w",
		w.opts.ID, w.opts.Addr, lastErr)
}

// send writes one frame to a pinned connection, serialized against
// the heartbeat goroutine. Callers pass the conn they captured at
// serve entry rather than reading w.conn, which the outer reconnect
// loop mutates; a stale conn just yields a write error.
func (w *worker) send(conn net.Conn, m *Msg) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeMsg(conn, m)
}

// serve runs the pull loop over the current connection. Returns nil on
// Shutdown, ErrKilled on a killworker fault, and a transport error
// otherwise (the caller redials).
func (w *worker) serve(ctx context.Context) error {
	conn, beat := w.conn, w.beat // pinned: a redial rewrites both

	// Heartbeats flow from a side goroutine for the lifetime of this
	// connection, so a worker grinding through a long shard still beats
	// and stays live. It stops when the connection dies.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		t := time.NewTicker(beat)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if w.send(conn, &Msg{Type: MsgHeartbeat, Worker: w.opts.ID}) != nil {
					return
				}
			}
		}
	}()

	// Unblock the blocking read when ctx is cancelled.
	go func() {
		<-hbCtx.Done()
		conn.SetReadDeadline(time.Now())
	}()

	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := w.send(conn, &Msg{Type: MsgPull, Worker: w.opts.ID}); err != nil {
			return err
		}
		var m Msg
		if err := readMsg(conn, &m); err != nil {
			return err
		}
		switch m.Type {
		case MsgShutdown:
			return nil
		case MsgNoWork:
			if err := resilience.Sleep(ctx, pullDelay); err != nil {
				return err
			}
		case MsgAssign:
			if err := w.executeShard(ctx, conn, &m); err != nil {
				return err
			}
		default:
			return fmt.Errorf("shard: worker %s: unexpected %s frame", w.opts.ID, m.Type)
		}
	}
}

// executeShard runs one assigned shard: fault trip-points at the shard
// boundary, the task loop once under panic isolation, then the result
// frame. A failed shard goes back in that frame and the coordinator
// re-dispatches it; returning an error tears the connection down (the
// outer loop decides whether to redial).
func (w *worker) executeShard(ctx context.Context, conn net.Conn, m *Msg) error {
	label := w.opts.ID + "/" + m.Kernel
	disrupt, err := w.opts.Plan.ShardFault(ctx, label)
	if err != nil {
		return err // cancelled mid-slowshard
	}
	if disrupt.Kill {
		// Die like a lost process: no result, no goodbye. The conn close
		// (or, failing that, the silence) is noticed and the shard
		// reschedules.
		return ErrKilled
	}

	tasks, err := DecodeTasks(m.Tasks)
	// DecodeTasks returns ascending indices, so the last is the largest.
	if err == nil && len(tasks) > 0 && tasks[len(tasks)-1] >= m.NumTasks {
		err = fmt.Errorf("shard: task %d outside the job's %d tasks", tasks[len(tasks)-1], m.NumTasks)
	}
	if err != nil {
		return w.send(conn, &Msg{
			Type: MsgResult, Worker: w.opts.ID, Job: m.Job,
			Shard: m.Shard, Attempt: m.Attempt, Err: err.Error(),
		})
	}

	start := time.Now()
	var digests []uint64
	var ops uint64
	runErr := resilience.Run(ctx, "shard:"+m.Kernel, resilience.Policy{}, func(actx context.Context) error {
		ex, err := w.executor(jobKey{m.Kernel, m.Size, m.Seed}, m.NumTasks)
		if err != nil {
			return err
		}
		digests = make([]uint64, 0, len(tasks))
		for _, t := range tasks {
			if err := w.opts.Plan.PointAt(actx, label); err != nil {
				return err
			}
			d, o, err := ex.RunTask(actx, t)
			if err != nil {
				return err
			}
			digests = append(digests, d)
			ops += o
		}
		return nil
	})

	if disrupt.Drop {
		// Partition after compute, before report: the freshest possible
		// lost result. Tear the connection down; the outer loop redials
		// and the coordinator reschedules this shard.
		return fmt.Errorf("shard: worker %s dropped connection (fault injection)", w.opts.ID)
	}

	res := &Msg{
		Type: MsgResult, Worker: w.opts.ID, Job: m.Job,
		Shard: m.Shard, Attempt: m.Attempt,
		ElapsedNs: time.Since(start).Nanoseconds(),
	}
	if runErr != nil {
		res.Err = runErr.Error()
	} else {
		res.Digests = digests
		res.Ops = ops
	}
	return w.send(conn, res)
}

// executor returns the prepared executor for key, building and
// preparing it when key differs from the one held. A worker holds one
// dataset at a time: the coordinator runs one job at a time and never
// re-leases a finished job's shards, so the previous key's executor —
// dataset and reusable kernel state — is dropped the moment a new key
// arrives. want is the task count the coordinator partitioned; a
// Prepare that built a different number means the two processes
// disagree about the dataset, and every shard of the job fails with
// both numbers rather than running a partial or out-of-range task set.
func (w *worker) executor(key jobKey, want int) (Executor, error) {
	if w.cur == nil || w.curKey != key {
		w.cur = nil // release the old dataset before building the next
		ex, err := NewExecutor(key.kernel)
		if err != nil {
			return nil, err
		}
		n, err := ex.Prepare(key.size, key.seed)
		if err != nil {
			return nil, fmt.Errorf("shard: preparing %s/%s seed %d: %w", key.kernel, key.size, key.seed, err)
		}
		w.cur, w.curKey, w.curTasks = ex, key, n
	}
	if w.curTasks != want {
		return nil, fmt.Errorf("shard: %s/%s seed %d prepared %d tasks, the assignment says %d",
			key.kernel, key.size, key.seed, w.curTasks, want)
	}
	return w.cur, nil
}
