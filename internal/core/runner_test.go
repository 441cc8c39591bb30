package core

import (
	"context"
	"errors"
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

func quietPolicy() resilience.Policy {
	return resilience.Policy{
		Attempts:   2,
		Sleep:      func(ctx context.Context, d time.Duration) error { return ctx.Err() },
		JitterSeed: 1,
	}
}

func TestRunSuiteAllHealthy(t *testing.T) {
	benches := []Benchmark{&stubBench{name: "a"}, &stubBench{name: "b"}}
	outcomes := RunSuite(context.Background(), benches, SuiteConfig{Policy: quietPolicy()})
	if len(outcomes) != 2 {
		t.Fatalf("got %d outcomes", len(outcomes))
	}
	for _, o := range outcomes {
		if o.Status != StatusOK || o.Err != nil || o.Attempts != 1 {
			t.Errorf("%s: %+v", o.Info.Name, o)
		}
	}
	if len(FailedOutcomes(outcomes)) != 0 {
		t.Error("healthy suite reported failures")
	}
}

func TestRunSuiteIsolatesPanickingKernel(t *testing.T) {
	bad := &stubBench{name: "bad", fn: func(context.Context) error { panic("kernel bug") }}
	after := &stubBench{name: "after"}
	outcomes := RunSuite(context.Background(), []Benchmark{&stubBench{name: "before"}, bad, after}, SuiteConfig{Policy: quietPolicy()})
	if outcomes[0].Status != StatusOK || outcomes[2].Status != StatusOK {
		t.Errorf("healthy kernels affected: %v / %v", outcomes[0].Status, outcomes[2].Status)
	}
	o := outcomes[1]
	if o.Status != StatusFailed || o.Attempts != 2 {
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

func TestRunSuiteRetriesWithoutRepreparing(t *testing.T) {
	calls := 0
	flaky := &stubBench{name: "flaky", fn: func(context.Context) error {
		calls++
		if calls == 1 {
			return errors.New("transient")
		}
		return nil
	}}
	outcomes := RunSuite(context.Background(), []Benchmark{flaky}, SuiteConfig{Policy: quietPolicy()})
	if outcomes[0].Status != StatusOK || outcomes[0].Attempts != 2 {
		t.Errorf("outcome = %+v", outcomes[0])
	}
	if flaky.prepares != 1 {
		t.Errorf("dataset prepared %d times across retries, want 1", flaky.prepares)
	}
}

func TestRunSuiteTimeoutClassifiedAndRetried(t *testing.T) {
	p := quietPolicy()
	p.Timeout = 5 * time.Millisecond
	stuck := &stubBench{name: "stuck", fn: func(ctx context.Context) error {
		<-ctx.Done() // deterministic: blocks until the attempt deadline
		return ctx.Err()
	}}
	outcomes := RunSuite(context.Background(), []Benchmark{stuck}, SuiteConfig{Policy: p})
	o := outcomes[0]
	if o.Status != StatusTimedOut || o.Attempts != 2 {
		t.Fatalf("outcome = %+v err=%v", o, o.Err)
	}
	if stuck.runs != 2 {
		t.Errorf("stuck ran %d times, want retried once", stuck.runs)
	}
}

func TestRunSuiteCancellationSkipsRemaining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	first := &stubBench{name: "first", fn: func(context.Context) error {
		cancel()
		return nil // completes despite cancel; already-running work finishes
	}}
	second := &stubBench{name: "second"}
	outcomes := RunSuite(ctx, []Benchmark{first, second}, SuiteConfig{Policy: quietPolicy()})
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
	outcomes := RunSuite(context.Background(), []Benchmark{bystander, victim}, SuiteConfig{Policy: quietPolicy()})
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
		Policy:   quietPolicy(),
		Progress: func(format string, args ...any) { lines = append(lines, format) },
	}
	bad := &stubBench{name: "bad", fn: func(context.Context) error { return errors.New("x") }}
	RunSuite(context.Background(), []Benchmark{bad}, cfg)
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"running", "retrying", "attempt"} {
		if !strings.Contains(joined, want) {
			t.Errorf("progress missing %q in %q", want, joined)
		}
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
