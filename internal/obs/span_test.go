package obs

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

func findSpan(spans []SpanRecord, name string) (SpanRecord, bool) {
	for _, s := range spans {
		if s.Name == name {
			return s, true
		}
	}
	return SpanRecord{}, false
}

func TestSpanParentChildNesting(t *testing.T) {
	tr := NewTracer()
	ctx := context.Background()
	sctx, suite := tr.Start(ctx, "suite")
	kctx, kernel := tr.Start(sctx, "kernel:fmi")
	_, prepare := tr.Start(kctx, "prepare")
	// A sibling off the suite span must parent under suite, not prepare.
	_, kernel2 := tr.Start(sctx, "kernel:bsw")
	prepare.End(nil)
	kernel.End(nil)
	kernel2.End(errors.New("boom\nsecond line ignored"))
	suite.End(nil)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	s, _ := findSpan(spans, "suite")
	k, _ := findSpan(spans, "kernel:fmi")
	a, _ := findSpan(spans, "prepare")
	k2, _ := findSpan(spans, "kernel:bsw")
	if s.Parent != 0 {
		t.Errorf("suite parent = %d, want 0 (root)", s.Parent)
	}
	if k.Parent != s.ID {
		t.Errorf("kernel parent = %d, want suite id %d", k.Parent, s.ID)
	}
	if a.Parent != k.ID {
		t.Errorf("prepare parent = %d, want kernel id %d", a.Parent, k.ID)
	}
	if k2.Parent != s.ID {
		t.Errorf("sibling kernel parent = %d, want suite id %d", k2.Parent, s.ID)
	}
	if k2.Status != "boom" {
		t.Errorf("error status = %q, want first line %q", k2.Status, "boom")
	}
	if s.Status != "ok" || k.Status != "ok" {
		t.Errorf("ok statuses = %q, %q", s.Status, k.Status)
	}
	if a.DurNs < 0 || a.StartNs < s.StartNs {
		t.Errorf("prepare timing start=%d dur=%d (suite start %d)", a.StartNs, a.DurNs, s.StartNs)
	}
}

func TestSpanEndOnlyOnce(t *testing.T) {
	tr := NewTracer()
	_, s := tr.Start(context.Background(), "x")
	s.End(nil)
	s.End(errors.New("late"))
	s.EndStatus("even later")
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("span recorded %d times, want 1", len(spans))
	}
	if spans[0].Status != "ok" {
		t.Errorf("status = %q, want the first End's %q", spans[0].Status, "ok")
	}
}

func TestSpanAnnotations(t *testing.T) {
	tr := NewTracer()
	_, s := tr.Start(context.Background(), "x")
	s.Annotate("attempts", "2")
	s.Annotate("status", "ok")
	s.EndStatus("timeout")
	rec := tr.Spans()[0]
	if rec.Status != "timeout" {
		t.Errorf("status = %q", rec.Status)
	}
	if rec.Annots["attempts"] != "2" || rec.Annots["status"] != "ok" {
		t.Errorf("annots = %v", rec.Annots)
	}
	// Records marshal to the documented NDJSON shape.
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"type", "id", "name", "start_ns", "dur_ns", "status", "annots"} {
		if _, ok := m[key]; !ok {
			t.Errorf("marshalled span missing %q: %s", key, b)
		}
	}
	if m["type"] != "span" {
		t.Errorf("type = %v", m["type"])
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.Start(context.Background(), "root")
	var wg sync.WaitGroup
	const n = 32
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			_, s := tr.Start(ctx, "child")
			s.Annotate("k", "v")
			s.End(nil)
		}()
	}
	wg.Wait()
	root.End(nil)
	spans := tr.Spans()
	if len(spans) != n+1 {
		t.Fatalf("got %d spans, want %d", len(spans), n+1)
	}
	ids := make(map[uint64]bool)
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
		if s.Name == "child" && s.Parent == 0 {
			t.Error("child span lost its parent")
		}
	}
}

func TestSamplerCollectsAndStops(t *testing.T) {
	s := StartSampler(10 * time.Millisecond)
	s.SetLabel("fmi")
	time.Sleep(25 * time.Millisecond)
	s.Stop()
	samples := s.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	last := samples[len(samples)-1]
	if last.Type != "sample" {
		t.Errorf("type = %q", last.Type)
	}
	if last.HeapInuse == 0 || last.Goroutines == 0 {
		t.Errorf("empty runtime stats: %+v", last)
	}
	if last.Label != "fmi" {
		t.Errorf("label = %q, want fmi", last.Label)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].OffsetNs < samples[i-1].OffsetNs {
			t.Errorf("offsets not monotone: %d then %d", samples[i-1].OffsetNs, samples[i].OffsetNs)
		}
	}
}

func TestSamplerFinalSampleOnStop(t *testing.T) {
	// Even a run far shorter than the interval records one sample,
	// because Stop flushes a final one.
	s := StartSampler(time.Hour)
	s.Stop()
	if got := len(s.Samples()); got != 1 {
		t.Errorf("got %d samples, want exactly the final flush", got)
	}
}
