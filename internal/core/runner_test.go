package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/resilience"
)

// stubBench is a scriptable Benchmark for runner tests.
type stubBench struct {
	name     string
	fn       func(ctx context.Context) error
	prepares int
	runs     int
	releases int
}

func (b *stubBench) Info() Info                 { return Info{Name: b.name, Tool: "stub"} }
func (b *stubBench) Prepare(size Size, s int64) { b.prepares++ }
func (b *stubBench) Release()                   { b.releases++ }
func (b *stubBench) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	b.runs++
	if b.fn != nil {
		if err := b.fn(ctx); err != nil {
			return RunStats{}, err
		}
	}
	return RunStats{Elapsed: time.Millisecond}, nil
}

func TestRunSuiteAllHealthy(t *testing.T) {
	a, b := &stubBench{name: "a"}, &stubBench{name: "b"}
	outcomes := RunSuite(context.Background(), []Benchmark{a, b}, SuiteConfig{Policy: PolicyFor(Small)})
	if len(outcomes) != 2 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	for _, o := range outcomes {
		if o.Status != StatusOK || o.Err != nil {
			t.Errorf("%s: %+v", o.Info.Name, o)
		}
	}
	for _, sb := range []*stubBench{a, b} {
		if sb.prepares != 1 || sb.runs != 1 || sb.releases != 1 {
			t.Errorf("%s: prepares=%d runs=%d releases=%d, want 1 each", sb.name, sb.prepares, sb.runs, sb.releases)
		}
	}
	if len(FailedOutcomes(outcomes)) != 0 {
		t.Error("healthy suite reported failures")
	}
}

func TestRunSuiteIsolatesPanickingKernel(t *testing.T) {
	bad := &stubBench{name: "bad", fn: func(context.Context) error { panic("kernel bug") }}
	after := &stubBench{name: "after"}
	outcomes := RunSuite(context.Background(), []Benchmark{&stubBench{name: "before"}, bad, after}, SuiteConfig{Policy: PolicyFor(Small)})
	if outcomes[0].Status != StatusOK || outcomes[2].Status != StatusOK {
		t.Errorf("healthy kernels affected: %v / %v", outcomes[0].Status, outcomes[2].Status)
	}
	o := outcomes[1]
	if o.Status != StatusFailed {
		t.Fatalf("bad outcome = %+v", o)
	}
	var ke *resilience.KernelError
	if !errors.As(o.Err, &ke) || !ke.Panicked || ke.Value != "kernel bug" {
		t.Errorf("err = %v", o.Err)
	}
	if len(ke.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	if after.runs != 1 || bad.releases != 1 {
		t.Errorf("after.runs=%d bad.releases=%d", after.runs, bad.releases)
	}
	failed := FailedOutcomes(outcomes)
	if len(failed) != 1 || failed[0].Info.Name != "bad" {
		t.Errorf("FailedOutcomes = %+v", failed)
	}
}

// TestRunSuiteFailedKernelRunsOnce: a kernel is deterministic in its
// dataset and seed, so a failure of any kind — an error, a panic, a
// timeout — is reported at once and never run again, and the suite goes
// on to the next kernel.
func TestRunSuiteFailedKernelRunsOnce(t *testing.T) {
	blockUntilDeadline := func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}
	for _, c := range []struct {
		name string
		fn   func(ctx context.Context) error
		want Status
	}{
		{"erroring", func(context.Context) error { return errors.New("bad input") }, StatusFailed},
		{"panicking", func(context.Context) error { panic("kernel bug") }, StatusFailed},
		{"stuck", blockUntilDeadline, StatusTimedOut},
	} {
		bad := &stubBench{name: c.name, fn: c.fn}
		next := &stubBench{name: "next"}
		p := PolicyFor(Small)
		p.Timeout = 5 * time.Millisecond
		outcomes := RunSuite(context.Background(), []Benchmark{bad, next}, SuiteConfig{Policy: p})
		if outcomes[0].Status != c.want {
			t.Errorf("%s: status %v, want %v (err %v)", c.name, outcomes[0].Status, c.want, outcomes[0].Err)
		}
		if bad.prepares != 1 || bad.runs != 1 || bad.releases != 1 {
			t.Errorf("%s: prepares=%d runs=%d releases=%d, want 1 each", c.name, bad.prepares, bad.runs, bad.releases)
		}
		if outcomes[1].Status != StatusOK || next.runs != 1 {
			t.Errorf("%s: next kernel = %+v after %d run(s), want ok after 1", c.name, outcomes[1], next.runs)
		}
	}
}

func TestRunSuiteTimeoutClassified(t *testing.T) {
	stuck := &stubBench{name: "stuck", fn: func(ctx context.Context) error {
		<-ctx.Done() // deterministic: blocks until the deadline
		return ctx.Err()
	}}
	outcomes := RunSuite(context.Background(), []Benchmark{stuck}, SuiteConfig{Policy: resilience.Policy{Timeout: 5 * time.Millisecond}})
	o := outcomes[0]
	if o.Status != StatusTimedOut {
		t.Fatalf("outcome = %+v err=%v", o, o.Err)
	}
	if stuck.runs != 1 {
		t.Errorf("stuck ran %d times, want 1", stuck.runs)
	}
}

func TestRunSuiteCancellationSkipsRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	first := &stubBench{name: "first", fn: func(context.Context) error {
		cancel()
		return nil // completes despite cancel; already-running work finishes
	}}
	second := &stubBench{name: "second"}
	outcomes := RunSuite(ctx, []Benchmark{first, second}, SuiteConfig{Policy: PolicyFor(Small)})
	if outcomes[0].Status != StatusOK {
		t.Errorf("first = %+v", outcomes[0])
	}
	if outcomes[1].Status != StatusSkipped || second.runs != 0 {
		t.Errorf("second = %+v runs=%d, want skipped", outcomes[1], second.runs)
	}
}

func TestRunSuiteFaultLabelFollowsKernel(t *testing.T) {
	plan, err := faultinject.Parse("error:victim:1.0", 3)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	defer faultinject.Disarm()
	point := func(ctx context.Context) error { return faultinject.Point(ctx) }
	victim := &stubBench{name: "victim", fn: point}
	bystander := &stubBench{name: "bystander", fn: point}
	outcomes := RunSuite(context.Background(), []Benchmark{bystander, victim}, SuiteConfig{Policy: PolicyFor(Small)})
	if outcomes[0].Status != StatusOK {
		t.Errorf("bystander hit by fault targeted at victim: %+v", outcomes[0])
	}
	if outcomes[1].Status != StatusFailed {
		t.Errorf("victim = %+v", outcomes[1])
	}
	var ie *faultinject.InjectedError
	if !errors.As(outcomes[1].Err, &ie) {
		t.Errorf("victim error %v should unwrap to *InjectedError", outcomes[1].Err)
	}
}

func TestRunSuiteProgressLines(t *testing.T) {
	var lines []string
	cfg := SuiteConfig{
		Policy:   PolicyFor(Small),
		Progress: func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) },
	}
	bad := &stubBench{name: "bad", fn: func(context.Context) error { panic("kernel bug") }}
	RunSuite(context.Background(), []Benchmark{bad}, cfg)
	want := []string{"bad: running", "bad: failed: panic: kernel bug"}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("progress = %q, want %q: kernel, status and cause once each", lines, want)
	}
}

func TestStatusStrings(t *testing.T) {
	for s, want := range map[Status]string{
		StatusOK: "ok", StatusFailed: "failed", StatusTimedOut: "timeout", StatusSkipped: "skipped",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
