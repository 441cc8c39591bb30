package faultinject

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseGrammar(t *testing.T) {
	p, err := Parse("panic:poa:0.5,slowshard:w2,delay:chain:200ms", 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Faults) != 3 {
		t.Fatalf("got %d faults", len(p.Faults))
	}
	if f := p.Faults[0]; f.Kind != KindPanic || f.Site != "poa" || f.Prob != 0.5 {
		t.Errorf("clause 0 = %+v", f)
	}
	if f := p.Faults[1]; f.Kind != KindSlowShard || f.Site != "w2" || f.Delay != 100*time.Millisecond {
		t.Errorf("clause 1 = %+v (default delay)", f)
	}
	if f := p.Faults[2]; f.Kind != KindDelay || f.Site != "chain" || f.Delay != 200*time.Millisecond {
		t.Errorf("clause 2 = %+v", f)
	}
	if s := p.String(); !strings.Contains(s, "panic:poa:0.5") {
		t.Errorf("String() = %q", s)
	}
}

func TestParseDefaultsAndErrors(t *testing.T) {
	p, err := Parse("panic:fmi,error:dbg,slowshard:w1,dropconn:w2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults[0].Prob != 1 || p.Faults[1].Prob != 1 {
		t.Error("panic/error default probability should be 1")
	}
	if p.Faults[2].Delay != 100*time.Millisecond {
		t.Error("slowshard default delay should be 100ms")
	}
	if p.Faults[3].Prob != 1 {
		t.Error("dropconn default probability should be 1")
	}
	for _, bad := range []string{
		"panic", "panic:", ":x", "nuke:poa", "panic:poa:2.0", "panic:poa:-1",
		"delay:x:notadur", "slowshard:x:-5ms", "panic:poa:0.5:extra",
	} {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
	// Nothing in the suite reads a file, so there are no reader kinds.
	for _, retired := range []string{"truncate:x", "corrupt:x", "slow:x"} {
		if _, err := Parse(retired, 1); err == nil || !strings.Contains(err.Error(), "unknown fault kind") {
			t.Errorf("Parse(%q) = %v, want an unknown fault kind error", retired, err)
		}
	}
	if p, err := Parse("", 1); err != nil || p != nil {
		t.Errorf("empty spec: plan=%v err=%v", p, err)
	}
}

func TestSiteMatching(t *testing.T) {
	f := Fault{Site: "poa"}
	if !f.matches("spoa") || !f.matches("poa") {
		t.Error("site poa should match labels poa and spoa")
	}
	if f.matches("chain") || f.matches("") {
		t.Error("site poa must not match chain or empty label")
	}
	star := Fault{Site: "*"}
	if !star.matches("anything") || !star.matches("") {
		t.Error("* should match everything")
	}
}

func TestPointPanicDeterministic(t *testing.T) {
	p, _ := Parse("panic:kern:1.0", 7)
	Arm(p)
	defer Disarm()
	ctx := obs.WithLabel(context.Background(), "kern")
	defer func() {
		ip, ok := recover().(*InjectedPanic)
		if !ok {
			t.Fatal("expected *InjectedPanic")
		}
		if ip.Site != "kern" || ip.Label != "kern" {
			t.Errorf("panic = %+v", ip)
		}
	}()
	Point(ctx)
	t.Fatal("Point did not panic at probability 1")
}

func TestPointRespectsLabelAndProbabilityZero(t *testing.T) {
	p, _ := Parse("panic:kern:1.0,panic:other:0.0", 7)
	Arm(p)
	defer Disarm()
	// Wrong label: nothing fires.
	ctx := obs.WithLabel(context.Background(), "unrelated")
	if err := Point(ctx); err != nil {
		t.Fatal(err)
	}
	// Probability 0 never fires even with a matching label.
	ctx = obs.WithLabel(context.Background(), "other")
	for i := 0; i < 100; i++ {
		if err := Point(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPointProbabilityIsSeededAndStable(t *testing.T) {
	count := func(seed int64) int {
		p, _ := Parse("error:kern:0.3", seed)
		Arm(p)
		defer Disarm()
		ctx := obs.WithLabel(context.Background(), "kern")
		fired := 0
		for i := 0; i < 1000; i++ {
			if Point(ctx) != nil {
				fired++
			}
		}
		return fired
	}
	a, b := count(99), count(99)
	if a != b {
		t.Errorf("same seed fired %d then %d times", a, b)
	}
	if a < 200 || a > 400 {
		t.Errorf("p=0.3 fired %d/1000 times", a)
	}
	if c := count(100); c == a {
		t.Logf("different seeds coincided (%d) — suspicious but possible", c)
	}
}

func TestPointDelayHonorsCancellation(t *testing.T) {
	p, _ := Parse("delay:kern:1h", 7)
	Arm(p)
	defer Disarm()
	ctx, cancel := context.WithCancel(obs.WithLabel(context.Background(), "kern"))
	done := make(chan error, 1)
	go func() { done <- Point(ctx) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("delay fault ignored cancellation")
	}
}

// TestPointTargetsContextLabel: a trip-point matches the kernel label
// its own context carries, so kernels running at once under one armed
// plan each see only their own faults.
func TestPointTargetsContextLabel(t *testing.T) {
	p, _ := Parse("error:bsw:1.0", 7)
	Arm(p)
	defer Disarm()
	const calls = 50
	labels := []string{"bsw", "fmi"}
	var tripped [2]atomic.Int64
	var wg sync.WaitGroup
	for i, lbl := range labels {
		ctx := obs.WithLabel(context.Background(), lbl)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < calls; n++ {
				var ie *InjectedError
				if err := Point(ctx); errors.As(err, &ie) && ie.Label == lbl {
					tripped[i].Add(1)
				} else if err != nil {
					t.Errorf("%s: %v", lbl, err)
				}
			}
		}()
	}
	wg.Wait()
	if got := tripped[0].Load(); got != calls {
		t.Errorf("bsw tripped %d of %d calls under error:bsw:1.0", got, calls)
	}
	if got := tripped[1].Load(); got != 0 {
		t.Errorf("fmi tripped %d times under error:bsw:1.0", got)
	}
}

func TestPointDisarmedIsNoop(t *testing.T) {
	Disarm()
	ctx := obs.WithLabel(context.Background(), "kern")
	if err := Point(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestPointDelayPreCancelledReturnsImmediately(t *testing.T) {
	p, _ := Parse("delay:kern:1h", 7)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	err := p.PointAt(ctx, "kern")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("pre-cancelled delay trip-point slept %v", d)
	}
}

func TestParseShardFaultKinds(t *testing.T) {
	spec := "killworker:w1:1,slowshard:w2:50ms,dropconn:*:0.5"
	p, err := Parse(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != spec {
		t.Errorf("round-trip = %q, want %q", got, spec)
	}
	// Shard kinds never fire at kernel trip-points.
	if err := p.PointAt(context.Background(), "w1/spoa"); err != nil {
		t.Fatalf("PointAt fired a shard fault: %v", err)
	}
}

func TestShardFaultDecisions(t *testing.T) {
	p, _ := Parse("killworker:w1:1,dropconn:w2:1,slowshard:w3:1ms", 3)
	ctx := context.Background()
	d, err := p.ShardFault(ctx, "w1/bsw")
	if err != nil || !d.Kill || d.Drop {
		t.Fatalf("w1 decision = %+v, %v; want Kill only", d, err)
	}
	d, err = p.ShardFault(ctx, "w2/bsw")
	if err != nil || d.Kill || !d.Drop {
		t.Fatalf("w2 decision = %+v, %v; want Drop only", d, err)
	}
	start := time.Now()
	d, err = p.ShardFault(ctx, "w3/bsw")
	if err != nil || d.Kill || d.Drop {
		t.Fatalf("w3 decision = %+v, %v; want neither", d, err)
	}
	if time.Since(start) < time.Millisecond {
		t.Error("slowshard did not sleep")
	}
	// Non-matching label: nothing fires, nothing counted.
	if d, _ := p.ShardFault(ctx, "w9/bsw"); d.Kill || d.Drop {
		t.Errorf("non-matching label fired: %+v", d)
	}
	for _, s := range p.Stats() {
		if s.Site == "w9" && s.Evals != 0 {
			t.Errorf("clause %s evaluated for non-matching label", s.Clause)
		}
	}
}

func TestShardFaultSlowShardHonorsCancellation(t *testing.T) {
	p, _ := Parse("slowshard:w1:1h", 3)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.ShardFault(ctx, "w1/bsw")
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slowshard slept through cancellation")
	}
}

func TestShardFaultNilPlan(t *testing.T) {
	var p *Plan
	if d, err := p.ShardFault(context.Background(), "w1"); err != nil || d.Kill || d.Drop {
		t.Fatalf("nil plan = %+v, %v", d, err)
	}
	if err := p.PointAt(context.Background(), "w1"); err != nil {
		t.Fatalf("nil plan PointAt = %v", err)
	}
}
