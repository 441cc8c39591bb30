// Package resilience wraps kernel executions with panic isolation,
// per-attempt timeouts, and bounded retries with exponential backoff
// and deterministic seeded jitter. It is the layer that lets the suite
// driver run all twelve kernels unattended: one misbehaving kernel is
// captured as a typed KernelError (carrying the panic stack when there
// is one) instead of taking down the process, and transient failures
// get a bounded, deterministic number of retries.
//
// Cancellation is cooperative: the function under Run receives a
// context that expires at the per-attempt deadline, and the kernels'
// task loops (parallel.ForEachCtxErr plus faultinject trip-points) poll
// it. Run never abandons a still-running attempt, so a retry can never
// race its predecessor over shared benchmark state.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/obs"
)

// Policy bounds one kernel execution.
type Policy struct {
	Attempts    int           // total attempts, >= 1 (0 means 1)
	Timeout     time.Duration // per-attempt deadline; 0 disables
	BackoffBase time.Duration // first retry delay before jitter
	BackoffCap  time.Duration // upper bound for the backoff curve
	JitterSeed  int64         // seeds the deterministic jitter stream

	// Sleep, when non-nil, replaces the package-level Sleep.
	// Tests inject a recorder here so retry schedules are asserted
	// without wall-clock waits.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Default returns the policy used when a caller does not care about
// dataset scale: two attempts, no per-attempt deadline, 100ms backoff
// growing to at most 2s.
func Default() Policy {
	return Policy{
		Attempts:    2,
		Timeout:     0,
		BackoffBase: 100 * time.Millisecond,
		BackoffCap:  2 * time.Second,
	}
}

// KernelError is the typed failure Run reports: which kernel failed,
// after how many attempts, whether the last attempt panicked or timed
// out, and the stack captured at the panic site when there is one.
type KernelError struct {
	Kernel   string
	Attempts int  // attempts actually made
	Panicked bool // last failure was a recovered panic
	TimedOut bool // last attempt exceeded its per-attempt deadline
	Value    any  // recovered panic value, when Panicked
	Stack    []byte
	Err      error // underlying error (fn error or context error)
}

func (e *KernelError) Error() string {
	cause := ""
	switch {
	case e.Panicked:
		cause = fmt.Sprintf("panic: %v", e.Value)
	case e.TimedOut:
		cause = fmt.Sprintf("timed out: %v", e.Err)
	default:
		cause = fmt.Sprintf("%v", e.Err)
	}
	return fmt.Sprintf("kernel %s failed after %d attempt(s): %s", e.Kernel, e.Attempts, cause)
}

func (e *KernelError) Unwrap() error { return e.Err }

// StackExcerpt returns up to n lines of the captured stack, for
// reports that want the failure site without pages of runtime frames.
func (e *KernelError) StackExcerpt(n int) string {
	if len(e.Stack) == 0 {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(e.Stack), "\n"), "\n")
	if len(lines) > n {
		lines = append(lines[:n], fmt.Sprintf("... (%d more lines)", len(lines)-n))
	}
	return strings.Join(lines, "\n")
}

// panicker is how scheduler layers (parallel.ForEachCtxErr) hand their
// recovered panics upward without this package importing them.
type panicker interface {
	PanicValue() any
	PanicStack() []byte
}

// Run executes fn under p: each attempt gets a context that expires
// after p.Timeout, a panicking attempt is recovered into the returned
// KernelError, and failed attempts are retried (after exponential
// backoff with seeded jitter) up to p.Attempts times. Cancellation of
// the parent ctx stops everything immediately — a cancelled run is
// not retried. The returned error is nil or a *KernelError.
//
// Each attempt's timeout context is cancelled (releasing its timer and
// watcher goroutine) before the backoff sleep and the next attempt
// begin — never deferred to function exit, where a long retry schedule
// would accumulate one leaked cancel per attempt. attempt() below
// makes that structural via its deferred cancel.
//
// When an obs.Observer is installed in ctx, Run counts attempts,
// retries, timeouts and recovered panics per kernel (metric names
// resilience.attempts / .retries / .timeouts / .panics).
func Run(ctx context.Context, kernel string, p Policy, fn func(ctx context.Context) error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	o := obs.From(ctx)
	rng := rand.New(rand.NewSource(p.JitterSeed ^ int64(hashString(kernel))))

	// attempt runs fn once under a fresh per-attempt deadline; the
	// deferred cancel fires when the attempt returns, before any
	// backoff or subsequent attempt.
	attempt := func() (ke *KernelError, timedOut bool) {
		actx := ctx
		cancel := func() {}
		if p.Timeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.Timeout)
		}
		defer cancel()
		ke = runAttempt(actx, fn)
		return ke, actx.Err() == context.DeadlineExceeded && ctx.Err() == nil
	}

	var last *KernelError
	for n := 1; n <= attempts; n++ {
		if err := ctx.Err(); err != nil {
			// Parent cancelled before this attempt started.
			if last == nil {
				return &KernelError{Kernel: kernel, Attempts: n - 1, Err: err}
			}
			return last
		}
		o.Counter("resilience.attempts", kernel).Inc()
		if n > 1 {
			o.Counter("resilience.retries", kernel).Inc()
		}
		ke, timedOut := attempt()
		if ke == nil {
			return nil
		}
		ke.Kernel = kernel
		ke.Attempts = n
		ke.TimedOut = timedOut
		if timedOut {
			o.Counter("resilience.timeouts", kernel).Inc()
		}
		if ke.Panicked {
			o.Counter("resilience.panics", kernel).Inc()
		}
		last = ke
		if ctx.Err() != nil {
			// Parent cancelled during the attempt: report, don't retry.
			return last
		}
		if n < attempts {
			if err := sleep(ctx, p, backoff(p, n, rng)); err != nil {
				return last
			}
		}
	}
	return last
}

// runAttempt runs fn once, converting panics — both direct ones and
// scheduler-recovered ones surfaced as errors — into *KernelError.
func runAttempt(ctx context.Context, fn func(ctx context.Context) error) (ke *KernelError) {
	defer func() {
		if r := recover(); r != nil {
			ke = &KernelError{
				Panicked: true,
				Value:    r,
				Stack:    debug.Stack(),
				Err:      fmt.Errorf("panic: %v", r),
			}
		}
	}()
	err := fn(ctx)
	if err == nil {
		return nil
	}
	var pv panicker
	if errors.As(err, &pv) {
		return &KernelError{Panicked: true, Value: pv.PanicValue(), Stack: pv.PanicStack(), Err: err}
	}
	return &KernelError{Err: err}
}

// backoff computes the delay before retrying after `attempt` failures:
// base·2^(attempt-1) capped at BackoffCap, jittered uniformly over
// [d/2, d) from the policy's seeded stream.
func backoff(p Policy, attempt int, rng *rand.Rand) time.Duration {
	d := p.BackoffBase
	if d <= 0 {
		return 0
	}
	for i := 1; i < attempt && d < p.BackoffCap; i++ {
		d *= 2
	}
	if p.BackoffCap > 0 && d > p.BackoffCap {
		d = p.BackoffCap
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

func sleep(ctx context.Context, p Policy, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	return Sleep(ctx, d)
}

// Sleep waits d, returning early with ctx's error when ctx is
// cancelled — including when it already was on entry, so a delay never
// outlives the attempt it stalls. Retry backoff, fault-injected delays
// and the shard worker's waits all sleep through it.
func Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// hashString is FNV-1a 64.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
