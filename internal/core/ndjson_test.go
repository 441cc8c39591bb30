package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// runObservedSuite executes a stub suite covering every outcome class —
// healthy, failing, fault-injected, and skipped via mid-suite
// cancellation — with a full observer attached, and returns the
// outcomes, the observer and the fault plan for export tests.
func runObservedSuite(t *testing.T) ([]KernelOutcome, *obs.Observer, *faultinject.Plan) {
	t.Helper()
	plan, err := faultinject.Parse("error:victim:1.0", 3)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	t.Cleanup(faultinject.Disarm)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	benches := []Benchmark{
		&stubBench{name: "healthy"},
		&stubBench{name: "broken", fn: func(context.Context) error { return errors.New("deliberate failure") }},
		&stubBench{name: "crashy", fn: func(context.Context) error { panic("deliberate panic") }},
		&stubBench{name: "victim", fn: func(c context.Context) error { return faultinject.Point(c) }},
		&stubBench{name: "canceller", fn: func(context.Context) error { cancel(); return nil }},
		&stubBench{name: "skipped"},
	}
	o := obs.NewObserver()
	outcomes := RunSuite(ctx, benches, SuiteConfig{Policy: PolicyFor(Small), Obs: o})
	if len(outcomes) != len(benches) {
		t.Fatalf("got %d outcomes for %d benches", len(outcomes), len(benches))
	}
	return outcomes, o, plan
}

func TestMetricsNDJSONRoundTrip(t *testing.T) {
	outcomes, o, plan := runObservedSuite(t)

	var faults []FaultRecord
	for _, s := range plan.Stats() {
		faults = append(faults, FaultRecord{
			Type: "fault", Clause: s.Clause, Site: s.Site, Kind: s.Kind.String(),
			Evals: s.Evals, Tripped: s.Tripped,
		})
	}
	meta := NewRunMeta(SuiteConfig{Size: Small, Seed: 42, Threads: 2}, "error:victim:1.0")
	var buf bytes.Buffer
	if err := WriteMetricsNDJSON(&buf, meta, outcomes, faults, o); err != nil {
		t.Fatal(err)
	}

	mf, err := ReadMetricsNDJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round-trip parse failed: %v", err)
	}
	if mf.Meta == nil || mf.Meta.Schema != MetricsSchemaVersion || mf.Meta.Size != "small" || mf.Meta.Seed != 42 {
		t.Errorf("meta = %+v", mf.Meta)
	}
	if mf.Meta.Faults != "error:victim:1.0" {
		t.Errorf("meta faults = %q", mf.Meta.Faults)
	}

	// The acceptance bar: exactly one well-formed kernel record per
	// kernel, including the failed and skipped ones.
	want := map[string]string{
		"healthy":   "ok",
		"broken":    "failed",
		"crashy":    "failed",
		"victim":    "failed",
		"canceller": "ok",
		"skipped":   "skipped",
	}
	if len(mf.Kernels) != len(want) {
		t.Fatalf("got %d kernel records, want %d: %+v", len(mf.Kernels), len(want), mf.Kernels)
	}
	seen := map[string]bool{}
	for _, k := range mf.Kernels {
		if seen[k.Kernel] {
			t.Errorf("duplicate kernel record for %q", k.Kernel)
		}
		seen[k.Kernel] = true
		if k.Status != want[k.Kernel] {
			t.Errorf("%s status = %q, want %q", k.Kernel, k.Status, want[k.Kernel])
		}
	}
	for _, k := range mf.Kernels {
		switch k.Kernel {
		case "healthy":
			if k.ElapsedNs <= 0 {
				t.Errorf("healthy record = %+v", k)
			}
		case "broken":
			if !strings.Contains(k.Error, "deliberate failure") {
				t.Errorf("broken record = %+v", k)
			}
		case "victim":
			if !strings.Contains(k.Error, "injected") {
				t.Errorf("victim record error = %q, want injected-fault mention", k.Error)
			}
		case "skipped":
			if k.ElapsedNs != 0 || k.Ops != 0 || k.TaskWork != nil {
				t.Errorf("skipped record should carry no stats: %+v", k)
			}
		}
	}

	// Fault clause accounting survives the round trip: the victim ran
	// once, so the clause was evaluated once and tripped at prob 1.0.
	if len(mf.Faults) != 1 {
		t.Fatalf("fault records = %+v", mf.Faults)
	}
	fr := mf.Faults[0]
	if fr.Site != "victim" || fr.Kind != "error" || fr.Evals != 1 || fr.Tripped != 1 {
		t.Errorf("fault record = %+v", fr)
	}

	// Supervisor metrics for the failed kernels made it into the file.
	metric := func(name, label string) *obs.MetricSnapshot {
		for i := range mf.Metrics {
			if mf.Metrics[i].Name == name && mf.Metrics[i].Label == label {
				return &mf.Metrics[i]
			}
		}
		return nil
	}
	if m := metric("resilience.panics", "crashy"); m == nil || m.Value != 1 {
		t.Errorf("resilience.panics[crashy] = %+v", m)
	}
	if m := metric("suite.kernels_failed", "broken"); m == nil || m.Value != 1 {
		t.Errorf("suite.kernels_failed[broken] = %+v", m)
	}
	if m := metric("suite.kernels", "healthy"); m == nil || m.Value != 1 {
		t.Errorf("suite.kernels[healthy] = %+v", m)
	}
	if m := metric("suite.kernels_skipped", "skipped"); m == nil || m.Value != 1 {
		t.Errorf("suite.kernels_skipped[skipped] = %+v", m)
	}
	if m := metric("kernel.elapsed_ns", "healthy"); m == nil || m.Kind != "histogram" || m.Count != 1 {
		t.Errorf("kernel.elapsed_ns[healthy] = %+v", m)
	}
}

func TestTraceNDJSONSpans(t *testing.T) {
	outcomes, o, _ := runObservedSuite(t)
	_ = outcomes
	meta := NewRunMeta(SuiteConfig{Size: Small}, "")
	var buf bytes.Buffer
	if err := WriteTraceNDJSON(&buf, meta, o); err != nil {
		t.Fatal(err)
	}
	mf, err := ReadMetricsNDJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace parse failed: %v", err)
	}
	byName := map[string]obs.SpanRecord{}
	for _, s := range mf.Spans {
		byName[s.Name] = s
	}
	suite, ok := byName["suite"]
	if !ok {
		t.Fatalf("no suite span in %d spans", len(mf.Spans))
	}
	if suite.Parent != 0 {
		t.Errorf("suite span has parent %d", suite.Parent)
	}
	for _, name := range []string{"kernel:healthy", "kernel:broken", "kernel:victim", "kernel:skipped"} {
		s, ok := byName[name]
		if !ok {
			t.Errorf("missing span %q", name)
			continue
		}
		if s.Parent != suite.ID {
			t.Errorf("%s parent = %d, want suite id %d", name, s.Parent, suite.ID)
		}
	}
	if s := byName["kernel:skipped"]; s.Status != "skipped" {
		t.Errorf("skipped kernel span status = %q", s.Status)
	}
	if s := byName["kernel:healthy"]; s.Status != "ok" {
		t.Errorf("healthy kernel span status = %q", s.Status)
	}
	// Each kernel that ran records one prepare and one run span, nested
	// directly under its kernel span.
	kernelOf := map[uint64]string{}
	for _, s := range mf.Spans {
		if strings.HasPrefix(s.Name, "kernel:") {
			kernelOf[s.ID] = s.Name
		}
	}
	phases := map[string]int{}
	for _, s := range mf.Spans {
		if s.Name == "prepare" || s.Name == "run" {
			k, ok := kernelOf[s.Parent]
			if !ok {
				t.Errorf("%s span parent %d is not a kernel span", s.Name, s.Parent)
			}
			phases[k+"/"+s.Name]++
		}
	}
	for _, k := range []string{"kernel:healthy", "kernel:broken", "kernel:victim"} {
		if phases[k+"/prepare"] != 1 || phases[k+"/run"] != 1 {
			t.Errorf("%s: %d prepare and %d run spans, want 1 each", k, phases[k+"/prepare"], phases[k+"/run"])
		}
	}
}

func TestReadMetricsNDJSONRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, input, wantErr string
	}{
		{"bad json", "{\"type\":\"meta\"}\n{not json}\n", "line 2"},
		{"missing type", "{\"kernel\":\"fmi\"}\n", "without a type"},
		{"kernel without name", "{\"type\":\"kernel\",\"status\":\"ok\"}\n", "without a kernel name"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadMetricsNDJSON(strings.NewReader(tc.input))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

func TestReadMetricsNDJSONSkipsUnknownTypes(t *testing.T) {
	input := "{\"type\":\"meta\",\"schema\":1}\n" +
		"{\"type\":\"future-record\",\"x\":1}\n" +
		"{\"type\":\"kernel\",\"kernel\":\"fmi\",\"status\":\"ok\"}\n" +
		"\n"
	mf, err := ReadMetricsNDJSON(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if mf.Meta == nil || len(mf.Kernels) != 1 {
		t.Errorf("parsed file = %+v", mf)
	}
}

func TestMetricsTablesRender(t *testing.T) {
	outcomes, o, plan := runObservedSuite(t)
	var faults []FaultRecord
	for _, s := range plan.Stats() {
		faults = append(faults, FaultRecord{
			Type: "fault", Clause: s.Clause, Site: s.Site, Kind: s.Kind.String(),
			Evals: s.Evals, Tripped: s.Tripped,
		})
	}
	meta := NewRunMeta(SuiteConfig{Size: Small, Seed: 1, Threads: 2}, "error:victim:1.0")
	var buf bytes.Buffer
	if err := WriteMetricsNDJSON(&buf, meta, outcomes, faults, o); err != nil {
		t.Fatal(err)
	}
	mf, err := ReadMetricsNDJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tables := MetricsTables(mf)
	if len(tables) < 3 {
		t.Fatalf("got %d tables, want kernel + metrics + faults", len(tables))
	}
	rendered := ""
	for _, tb := range tables {
		rendered += tb.String() + "\n"
	}
	for _, want := range []string{
		"healthy", "broken", "skipped", "deliberate failure",
		"resilience.panics", "error:victim", "tripped",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("rendered tables missing %q", want)
		}
	}
}

func TestKernelRecordsZeroElapsedStillOK(t *testing.T) {
	// A kernel whose RunStats carry no TaskStats or Extra still yields
	// a minimal, valid record.
	outcomes := []KernelOutcome{{
		Info:   Info{Name: "bare"},
		Status: StatusOK,
		Stats:  RunStats{Elapsed: time.Microsecond},
	}}
	recs := KernelRecords(outcomes)
	if len(recs) != 1 || recs[0].Kernel != "bare" || recs[0].TaskWork != nil {
		t.Errorf("records = %+v", recs)
	}
}
