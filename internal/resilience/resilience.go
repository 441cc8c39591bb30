// Package resilience runs a kernel once, capturing a panic as a typed
// KernelError and bounding the run by a deadline. It never retries: a
// kernel is deterministic in its dataset and seed, so a rerun replays
// its failure. Only the host fails transiently, and the shard fabric
// recovers that by re-dispatching the shard to another worker.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/obs"
)

// Policy bounds one kernel execution: Timeout is its deadline, 0 none.
type Policy struct{ Timeout time.Duration }

// KernelError is the typed failure Run reports: which kernel failed,
// whether it panicked or timed out, and the panic site's stack.
type KernelError struct {
	Kernel   string
	Panicked bool // the failure was a recovered panic
	TimedOut bool // the execution exceeded Policy.Timeout
	Value    any  // recovered panic value, when Panicked
	Stack    []byte
	Err      error // underlying error (fn error or context error)
}

func (e *KernelError) Error() string {
	switch {
	case e.Panicked:
		return fmt.Sprintf("kernel %s failed: panic: %v", e.Kernel, e.Value)
	case e.TimedOut:
		return fmt.Sprintf("kernel %s failed: timed out: %v", e.Kernel, e.Err)
	}
	return fmt.Sprintf("kernel %s failed: %v", e.Kernel, e.Err)
}

func (e *KernelError) Unwrap() error { return e.Err }

// StackExcerpt returns up to n lines of the captured stack, for
// reports that want the failure site without pages of runtime frames.
func (e *KernelError) StackExcerpt(n int) string {
	lines := strings.Split(strings.TrimRight(string(e.Stack), "\n"), "\n")
	if len(lines) > n {
		lines = append(lines[:n], fmt.Sprintf("... (%d more lines)", len(lines)-n))
	}
	return strings.Join(lines, "\n")
}

// Run executes fn once under a context that expires after p.Timeout
// and is cancelled when Run returns; a parent ctx cancelled on entry
// runs nothing. The error is nil or a *KernelError, counted in ctx's
// obs.Observer as resilience.timeouts or resilience.panics.
func Run(ctx context.Context, kernel string, p Policy, fn func(ctx context.Context) error) error {
	if err := ctx.Err(); err != nil {
		return &KernelError{Kernel: kernel, Err: err}
	}
	rctx, cancel := ctx, func() {}
	if p.Timeout > 0 {
		rctx, cancel = context.WithTimeout(ctx, p.Timeout)
	}
	defer cancel()
	ke := runOnce(rctx, fn)
	if ke == nil {
		return nil
	}
	ke.Kernel = kernel
	// A cancelled parent is not a timeout, even past the deadline.
	ke.TimedOut = rctx.Err() == context.DeadlineExceeded && ctx.Err() == nil
	if ke.TimedOut {
		obs.From(ctx).Counter("resilience.timeouts", kernel).Inc()
	}
	if ke.Panicked {
		obs.From(ctx).Counter("resilience.panics", kernel).Inc()
	}
	return ke
}

func runOnce(ctx context.Context, fn func(ctx context.Context) error) (ke *KernelError) {
	defer func() {
		if r := recover(); r != nil {
			ke = &KernelError{Panicked: true, Value: r, Stack: debug.Stack(), Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	err := fn(ctx)
	// How schedulers (parallel.ForEachCtxErr) return recovered panics.
	var pv interface {
		PanicValue() any
		PanicStack() []byte
	}
	switch {
	case err == nil:
		return nil
	case errors.As(err, &pv):
		return &KernelError{Panicked: true, Value: pv.PanicValue(), Stack: pv.PanicStack(), Err: err}
	}
	return &KernelError{Err: err}
}

// Sleep waits d, or returns ctx's error once ctx is cancelled, already
// on entry included. Fault delays and the shard worker sleep through it.
func Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
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
