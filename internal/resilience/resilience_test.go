package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRunSuccessPassesThrough(t *testing.T) {
	calls := 0
	err := Run(context.Background(), "fmi", Policy{}, func(ctx context.Context) error {
		calls++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("calls=%d, want 1", calls)
	}
}

func TestRunFailingFnRunsOnce(t *testing.T) {
	calls := 0
	boom := errors.New("boom")
	err := Run(context.Background(), "fmi", Policy{}, func(ctx context.Context) error {
		calls++
		return boom
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("err = %T %v, want *KernelError", err, err)
	}
	if ke.Kernel != "fmi" || ke.Panicked || ke.TimedOut {
		t.Errorf("KernelError = %+v", ke)
	}
	if !errors.Is(err, boom) {
		t.Error("KernelError should unwrap to the fn error")
	}
}

func TestRunRecoversDirectPanic(t *testing.T) {
	calls := 0
	err := Run(context.Background(), "poa", Policy{}, func(ctx context.Context) error {
		calls++
		panic("graph has a cycle")
	})
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("err = %T, want *KernelError", err)
	}
	if !ke.Panicked || ke.Value != "graph has a cycle" || calls != 1 {
		t.Errorf("KernelError = %+v after %d call(s)", ke, calls)
	}
	if !strings.Contains(string(ke.Stack), "resilience_test") {
		t.Error("stack should include the panic site")
	}
	if ex := ke.StackExcerpt(4); strings.Count(ex, "\n") > 4 {
		t.Errorf("StackExcerpt(4) too long:\n%s", ex)
	}
}

// schedPanic mimics parallel.PanicError without importing it, proving
// the structural interface is what resilience keys on.
type schedPanic struct {
	val   any
	stack []byte
}

func (e *schedPanic) Error() string      { return fmt.Sprintf("task panicked: %v", e.val) }
func (e *schedPanic) PanicValue() any    { return e.val }
func (e *schedPanic) PanicStack() []byte { return e.stack }

func TestRunRecognizesSchedulerPanicErrors(t *testing.T) {
	sp := &schedPanic{val: "kernel bug", stack: []byte("goroutine 7 [running]:\nkernel.go:99")}
	err := Run(context.Background(), "bsw", Policy{}, func(ctx context.Context) error {
		return sp
	})
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("err = %T, want *KernelError", err)
	}
	if !ke.Panicked || ke.Value != "kernel bug" || string(ke.Stack) != string(sp.stack) {
		t.Errorf("KernelError = %+v", ke)
	}
}

func TestRunTimeoutClassification(t *testing.T) {
	calls := 0
	// fn blocks on ctx.Done, so the outcome depends only on the
	// deadline firing — no wall-clock race.
	err := Run(context.Background(), "phmm", Policy{Timeout: 10 * time.Millisecond}, func(ctx context.Context) error {
		calls++
		<-ctx.Done()
		return ctx.Err()
	})
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("err = %T %v, want *KernelError", err, err)
	}
	if !ke.TimedOut || ke.Panicked {
		t.Errorf("KernelError = %+v, want TimedOut", ke)
	}
	if calls != 1 {
		t.Errorf("calls=%d, want the timed-out run not repeated", calls)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("timed-out KernelError should unwrap to DeadlineExceeded")
	}
}

func TestRunParentCancellationAbortsWithoutRetry(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Run(ctx, "dbg", Policy{Timeout: time.Hour}, func(c context.Context) error {
		calls++
		cancel() // parent dies mid-run
		return c.Err()
	})
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("err = %T, want *KernelError", err)
	}
	if calls != 1 {
		t.Errorf("calls=%d, want 1", calls)
	}
	if ke.TimedOut {
		t.Error("parent cancellation must not be classified as a timeout")
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("should unwrap to context.Canceled")
	}
}

func TestRunPreCancelledParent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Run(ctx, "grm", Policy{}, func(context.Context) error { calls++; return nil })
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("err = %T, want *KernelError", err)
	}
	if calls != 0 || ke.Kernel != "grm" || !errors.Is(err, context.Canceled) {
		t.Errorf("calls=%d err=%v, want no work on a pre-cancelled ctx", calls, err)
	}
}

func TestKernelErrorMessages(t *testing.T) {
	cases := []struct {
		ke   KernelError
		want string
	}{
		{KernelError{Kernel: "poa", Panicked: true, Value: "cycle"}, "panic: cycle"},
		{KernelError{Kernel: "fmi", TimedOut: true, Err: context.DeadlineExceeded}, "timed out"},
		{KernelError{Kernel: "bsw", Err: errors.New("io fail")}, "io fail"},
	}
	for _, c := range cases {
		if msg := c.ke.Error(); !strings.Contains(msg, c.want) || !strings.Contains(msg, c.ke.Kernel) {
			t.Errorf("Error() = %q, want kernel name and %q", msg, c.want)
		}
	}
	var empty KernelError
	if empty.StackExcerpt(5) != "" {
		t.Error("empty stack excerpt should be empty")
	}
}
