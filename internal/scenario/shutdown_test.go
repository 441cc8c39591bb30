package scenario

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/resilience"
)

// synthPipeline is a three-stage pass-through pipeline with a tunable
// per-item cost in the middle stage — small enough to hammer, slow
// enough that cancellation and faults land mid-stream.
func synthPipeline(items int, midCost time.Duration) *Pipeline {
	passthrough := func(ctx context.Context, w *Worker, v any, emit func(any) error) error {
		return emit(v.(int) + 1)
	}
	return &Pipeline{
		Source: func(ctx context.Context, emit func(any) error) error {
			for i := 0; i < items; i++ {
				if err := emit(i); err != nil {
					return err
				}
			}
			return nil
		},
		Stages: []Stage{
			{Name: "front", Workers: 2, Fn: passthrough},
			{Name: "mid", Workers: 2, Fn: func(ctx context.Context, w *Worker, v any, emit func(any) error) error {
				if midCost > 0 {
					time.Sleep(midCost)
				}
				return emit(v.(int) * 3)
			}},
			{Name: "back", Workers: 2, Fn: passthrough},
		},
		Fold: func(d *Digest, v any) { d.Int(v.(int)) },
	}
}

// waitNoLeak polls until the goroutine count returns to (near) the
// recorded baseline — the check that a drained pipeline left nothing
// parked on a channel.
func waitNoLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFusedCancellationDrains cancels a fused run mid-stream and
// asserts the pipeline drains: the run returns promptly with the
// cancellation as its error, partial-progress counters are sane, and
// no stage goroutine stays parked on a bounded channel.
func TestFusedCancellationDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	pipe := synthPipeline(500, 500*time.Microsecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		defer close(done)
		res, err = RunFused(ctx, "synth", pipe, Options{})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled pipeline did not drain (deadlock)")
	}
	if err == nil {
		t.Fatal("cancelled run reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if res.Final != nil || res.Digest != 0 {
		t.Fatalf("cancelled run leaked outputs: %d items, digest %#x", len(res.Final), res.Digest)
	}
	// Partial progress: something flowed, nothing overflowed.
	if res.Source <= 0 || res.Source >= 500 {
		t.Fatalf("source emitted %d of 500 before cancel; wanted a mid-stream cut", res.Source)
	}
	for i, ss := range res.Stages {
		if ss.In < 0 || ss.In > 500 || ss.Out > ss.In {
			t.Fatalf("stage %d counters out of range: %+v", i, ss)
		}
	}
	waitNoLeak(t, base)
}

// TestFusedInjectedFaultDrains trips a deterministic fault inside the
// middle stage of a 256-item stream, far more than the bounded
// queues hold, so upstream workers are blocked on sends when the stage
// dies — the drain path under test.
func TestFusedInjectedFaultDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	plan, perr := faultinject.Parse("error:synth/mid:1.0", 7)
	if perr != nil {
		t.Fatal(perr)
	}
	faultinject.Arm(plan)
	defer faultinject.Disarm()

	pipe := synthPipeline(256, 0)
	res, err := RunFused(context.Background(), "synth", pipe, Options{})
	if err == nil {
		t.Fatal("injected stage fault reported success")
	}
	var inj *faultinject.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("want InjectedError in chain, got %v", err)
	}
	if inj.Site != "synth/mid" {
		t.Fatalf("fault fired at %q", inj.Site)
	}
	if res.Stages[1].In == 0 {
		t.Fatal("mid stage recorded no arrivals before the fault")
	}
	waitNoLeak(t, base)

	stats := plan.Stats()
	if len(stats) != 1 || stats[0].Tripped == 0 {
		t.Fatalf("fault accounting missing: %+v", stats)
	}
}

// TestFusedInjectedPanicDrains injects a panic instead of an error:
// the scheduler's panic capture plus resilience's KernelError wrapping
// must surface it as a typed, stack-carrying error while the pipeline
// still drains cleanly.
func TestFusedInjectedPanicDrains(t *testing.T) {
	base := runtime.NumGoroutine()
	plan, perr := faultinject.Parse("panic:synth/mid:1.0", 9)
	if perr != nil {
		t.Fatal(perr)
	}
	faultinject.Arm(plan)
	defer faultinject.Disarm()

	pipe := synthPipeline(128, 0)
	_, err := RunFused(context.Background(), "synth", pipe, Options{})
	if err == nil {
		t.Fatal("injected stage panic reported success")
	}
	var ke *resilience.KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("want KernelError in chain, got %T: %v", err, err)
	}
	if !ke.Panicked {
		t.Fatalf("KernelError not marked panicked: %+v", ke)
	}
	waitNoLeak(t, base)
}

// TestStagedFaultPartialProgress pins the staged executor's shutdown
// accounting: a fault in the middle stage leaves the completed front
// stage's counters intact and never starts the back stage.
func TestStagedFaultPartialProgress(t *testing.T) {
	plan, perr := faultinject.Parse("error:synth/mid:1.0", 11)
	if perr != nil {
		t.Fatal(perr)
	}
	faultinject.Arm(plan)
	defer faultinject.Disarm()

	pipe := synthPipeline(64, 0)
	res, err := RunStaged(context.Background(), "synth", pipe, Options{})
	if err == nil {
		t.Fatal("injected stage fault reported success")
	}
	var inj *faultinject.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("want InjectedError in chain, got %v", err)
	}
	if res.Stages[0].In != 64 || res.Stages[0].Out != 64 {
		t.Fatalf("front stage should have completed: %+v", res.Stages[0])
	}
	if res.Stages[1].In == 0 {
		t.Fatal("mid stage recorded no arrivals")
	}
	if res.Stages[2].In != 0 || res.Stages[2].Out != 0 {
		t.Fatalf("back stage ran after the fault: %+v", res.Stages[2])
	}
}

// TestShutdownHammer interleaves cancellations and probabilistic
// faults across many fused runs — under -race this is the scheduler
// soak for the drain paths. Every run must terminate, and the process
// must end at its goroutine baseline.
func TestShutdownHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer skipped in -short")
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			plan, err := faultinject.Parse("error:synth/mid:0.02,panic:synth/back:0.01", int64(i))
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Arm(plan)
		} else {
			faultinject.Disarm()
		}
		pipe := synthPipeline(200, 50*time.Microsecond)
		ctx, cancel := context.WithCancel(context.Background())
		if i%3 == 0 {
			delay := time.Duration(i%7) * time.Millisecond
			go func() {
				time.Sleep(delay)
				cancel()
			}()
		}
		res, err := RunFused(ctx, "synth", pipe, Options{})
		if err == nil && int64(len(res.Final)) != 200 {
			t.Fatalf("iter %d: clean run lost items: %d/200", i, len(res.Final))
		}
		cancel()
	}
	faultinject.Disarm()
	waitNoLeak(t, base)
}
