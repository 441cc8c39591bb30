package faultinject

import (
	"context"
	"testing"

	"repro/internal/obs"
)

func statFor(t *testing.T, stats []FaultStat, site string) FaultStat {
	t.Helper()
	for _, s := range stats {
		if s.Site == site {
			return s
		}
	}
	t.Fatalf("no stat for site %q in %+v", site, stats)
	return FaultStat{}
}

func TestStatsArmedVsTripped(t *testing.T) {
	p, err := Parse("error:always:1.0,error:never:0.0,error:elsewhere:1.0", 11)
	if err != nil {
		t.Fatal(err)
	}
	Arm(p)
	defer Disarm()

	ctx := obs.WithLabel(context.Background(), "always")
	for i := 0; i < 5; i++ {
		_ = Point(ctx)
	}
	ctx = obs.WithLabel(context.Background(), "never")
	for i := 0; i < 7; i++ {
		if err := Point(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// "elsewhere" never matches a label: armed but never evaluated.

	stats := p.Stats()
	if len(stats) != 3 {
		t.Fatalf("got %d stats for 3 clauses", len(stats))
	}
	always := statFor(t, stats, "always")
	if always.Evals != 5 || always.Tripped != 5 {
		t.Errorf("always = %+v, want 5 evals / 5 trips", always)
	}
	if always.Clause == "" || always.Kind.String() != "error" {
		t.Errorf("always metadata = %+v", always)
	}
	never := statFor(t, stats, "never")
	if never.Evals != 7 || never.Tripped != 0 {
		t.Errorf("never = %+v, want 7 evals / 0 trips", never)
	}
	elsewhere := statFor(t, stats, "elsewhere")
	if elsewhere.Evals != 0 || elsewhere.Tripped != 0 {
		t.Errorf("elsewhere = %+v, want untouched clause to read 0/0", elsewhere)
	}
}

func TestStatsFractionalProbability(t *testing.T) {
	p, err := Parse("error:kern:0.3", 42)
	if err != nil {
		t.Fatal(err)
	}
	Arm(p)
	defer Disarm()
	ctx := obs.WithLabel(context.Background(), "kern")
	const n = 1000
	fired := 0
	for i := 0; i < n; i++ {
		if Point(ctx) != nil {
			fired++
		}
	}
	s := p.Stats()[0]
	if s.Evals != n {
		t.Errorf("evals = %d, want %d", s.Evals, n)
	}
	if s.Tripped != uint64(fired) {
		t.Errorf("tripped = %d, but %d errors observed", s.Tripped, fired)
	}
	if s.Tripped == 0 || s.Tripped == n {
		t.Errorf("prob 0.3 tripped %d/%d times", s.Tripped, n)
	}
}

func TestStatsDelayCountsEveryFiring(t *testing.T) {
	p, err := Parse("delay:kern:1ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	Arm(p)
	defer Disarm()
	ctx := obs.WithLabel(context.Background(), "kern")
	for i := 0; i < 3; i++ {
		if err := Point(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Stats()[0]
	if s.Evals != 3 || s.Tripped != 3 {
		t.Errorf("delay stats = %+v, want 3/3 (delays fire on every match)", s)
	}
}

func TestStatsNilPlan(t *testing.T) {
	var p *Plan
	if p.Stats() != nil {
		t.Error("nil plan stats should be nil")
	}
}
