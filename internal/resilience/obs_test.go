package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRunCancelsContextOnReturn(t *testing.T) {
	// The deadline context must be released when Run returns, not left
	// for its timer to expire.
	var done <-chan struct{}
	err := Run(context.Background(), "leaky", Policy{Timeout: time.Hour}, func(ctx context.Context) error {
		done = ctx.Done()
		return errors.New("fail")
	})
	if err == nil {
		t.Fatal("expected the fn error")
	}
	select {
	case <-done:
	default:
		t.Error("Run returned with its context still live")
	}
}

func TestRunCountsTimeoutsPanics(t *testing.T) {
	o := obs.NewObserver()
	ctx := obs.With(context.Background(), o)

	// Kernel 1: fails with a plain error — neither a timeout nor a panic.
	_ = Run(ctx, "broken", Policy{}, func(context.Context) error { return errors.New("bad input") })

	// Kernel 2: times out.
	_ = Run(ctx, "stuck", Policy{Timeout: 5 * time.Millisecond}, func(c context.Context) error {
		<-c.Done()
		return c.Err()
	})

	// Kernel 3: panics.
	_ = Run(ctx, "crashy", Policy{}, func(context.Context) error { panic("boom") })

	counter := func(name, kernel string) uint64 {
		return o.Metrics.Counter(name, kernel).Value()
	}
	for _, c := range []struct {
		name, kernel string
		want         uint64
	}{
		{"resilience.timeouts", "broken", 0},
		{"resilience.panics", "broken", 0},
		{"resilience.timeouts", "stuck", 1},
		{"resilience.panics", "stuck", 0},
		{"resilience.timeouts", "crashy", 0},
		{"resilience.panics", "crashy", 1},
	} {
		if got := counter(c.name, c.kernel); got != c.want {
			t.Errorf("%s{%s} = %d, want %d", c.name, c.kernel, got, c.want)
		}
	}
}

func TestRunWithoutObserverStillWorks(t *testing.T) {
	calls := 0
	err := Run(context.Background(), "plain", Policy{}, func(context.Context) error {
		calls++
		panic("once") // reaches the panic counter with no observer installed
	})
	var ke *KernelError
	if !errors.As(err, &ke) || !ke.Panicked || calls != 1 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}
