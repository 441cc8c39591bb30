package obs

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits", "fmi")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("hits", "fmi"); again != c {
		t.Error("Counter did not return the cached handle")
	}
	if other := r.Counter("hits", "bsw"); other == c {
		t.Error("different labels share a handle")
	}
	g := r.Gauge("util", "")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Errorf("gauge = %v, want 0.75", got)
	}
}

func TestNilSafety(t *testing.T) {
	// Every call on nil registries/handles/observers must be a no-op:
	// instrumentation sites do not branch on "is observability on".
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "", "ns").Observe(1)
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}
	var o *Observer
	o.Counter("x", "").Add(2)
	o.Gauge("x", "").Set(3)
	o.Histogram("x", "", "ns").Observe(4)
	o.SetLabel("k")
	ctx, span := o.StartSpan(context.Background(), "s")
	span.End(nil)
	span.EndStatus("ok")
	span.Annotate("k", "v")
	if ctx != context.Background() {
		t.Error("nil observer StartSpan changed the context")
	}
	var tr *Tracer
	_, s2 := tr.Start(context.Background(), "s")
	s2.End(nil)
	if tr.Spans() != nil {
		t.Error("nil tracer spans not nil")
	}
	var sm *Sampler
	sm.SetLabel("x")
	sm.Stop()
	if sm.Samples() != nil {
		t.Error("nil sampler samples not nil")
	}
}

func TestHistogramQuantilesKnownDistribution(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", "ns")
	// Uniform 1..10000, shuffled: quantiles are known exactly.
	n := 10000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, v := range perm {
		h.Observe(float64(v + 1))
	}
	if h.Count() != uint64(n) {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != float64(n) {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	wantSum := float64(n) * float64(n+1) / 2
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Errorf("sum = %v, want %v", h.Sum(), wantSum)
	}
	// The log-linear buckets guarantee ~12.5% relative error; assert 15%.
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 5000}, {0.95, 9500}, {0.99, 9900}, {0.25, 2500},
	} {
		got := h.Quantile(tc.q)
		if rel := math.Abs(got-tc.want) / tc.want; rel > 0.15 {
			t.Errorf("p%v = %v, want %v ±15%%", tc.q*100, got, tc.want)
		}
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("p0 = %v, want exact min 1", got)
	}
	if got := h.Quantile(1); got != float64(n) {
		t.Errorf("p100 = %v, want exact max %d", got, n)
	}
	if mean := h.Sum() / float64(h.Count()); math.Abs(mean-wantSum/float64(n)) > 1 {
		t.Errorf("mean = %v", mean)
	}
}

func TestHistogramLogNormalQuantiles(t *testing.T) {
	// A heavy-tailed distribution spanning several orders of magnitude
	// (the latency shape the histogram exists for). Compare against
	// exact sample quantiles.
	rng := rand.New(rand.NewSource(7))
	r := NewRegistry()
	h := r.Histogram("lat", "", "ns")
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Exp(rng.NormFloat64()*2 + 10) // median e^10 ≈ 22026
		h.Observe(vals[i])
	}
	exact := func(q float64) float64 {
		s := append([]float64(nil), vals...)
		idx := int(q * float64(len(s)))
		if idx >= len(s) {
			idx = len(s) - 1
		}
		// nth-element via full sort is fine at this size
		sortFloats(s)
		return s[idx]
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got, want := h.Quantile(q), exact(q)
		if rel := math.Abs(got-want) / want; rel > 0.2 {
			t.Errorf("q=%v: got %v, want %v (rel err %.2f)", q, got, want, rel)
		}
	}
}

func sortFloats(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", "", "")
	h.Observe(0)
	h.Observe(-5)
	h.Observe(0.25)
	h.Observe(math.Inf(1))
	if h.Count() != 4 {
		t.Errorf("count = %d", h.Count())
	}
	// Sub-unity and non-finite values land in the catch-all buckets
	// without panicking; quantiles stay ordered.
	if h.Quantile(0.1) > h.Quantile(0.9) {
		t.Error("quantiles not monotone")
	}
}

func TestConcurrentRecording(t *testing.T) {
	// Hammer one counter, one gauge and one histogram from many
	// goroutines; run under -race this is the data-race regression
	// test, and the counter/histogram totals must be exact.
	r := NewRegistry()
	const workers = 8
	const per = 5000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			c := r.Counter("ops", "k")
			h := r.Histogram("lat", "k", "ns")
			g := r.Gauge("util", "k")
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%100 + 1))
				g.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("ops", "k").Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	h := r.Histogram("lat", "k", "ns")
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	wantSum := float64(workers) * 50.5 * per
	if math.Abs(h.Sum()-wantSum) > 1e-6*wantSum {
		t.Errorf("histogram sum = %v, want %v (atomic accumulation lost updates)", h.Sum(), wantSum)
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("b", "z").Inc()
	r.Counter("b", "a").Inc()
	r.Counter("a", "m").Inc()
	r.Gauge("g", "").Set(1)
	r.Histogram("h", "x", "ns").Observe(2)
	snap := r.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot has %d entries", len(snap))
	}
	wantOrder := []string{"a|m", "b|a", "b|z", "g|", "h|x"}
	for i, w := range wantOrder {
		got := snap[i].Name + "|" + snap[i].Label
		if got != w {
			t.Errorf("snapshot[%d] = %s, want %s", i, got, w)
		}
	}
	if snap[0].Kind != "counter" || snap[3].Kind != "gauge" || snap[4].Kind != "histogram" {
		t.Errorf("kinds = %v %v %v", snap[0].Kind, snap[3].Kind, snap[4].Kind)
	}
	hs := snap[4]
	if hs.Count != 1 || hs.Min != 2 || hs.Max != 2 || hs.Unit != "ns" {
		t.Errorf("histogram snapshot = %+v", hs)
	}
}

func TestContextPlumbing(t *testing.T) {
	o := NewObserver()
	ctx := With(context.Background(), o)
	if From(ctx) != o {
		t.Error("From did not return the installed observer")
	}
	if From(context.Background()) != nil {
		t.Error("From on a bare context should be nil")
	}
	ctx = WithLabel(ctx, "fmi")
	if Label(ctx) != "fmi" {
		t.Errorf("label = %q", Label(ctx))
	}
	if Label(context.Background()) != "" {
		t.Error("label on a bare context should be empty")
	}
	if With(context.Background(), nil) != context.Background() {
		t.Error("With(nil) should return ctx unchanged")
	}
}
