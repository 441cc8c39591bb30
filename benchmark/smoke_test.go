package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// The tests measure nothing, so the tunables stay at their defaults
// instead of being probed: probing under the race detector trips on
// parallel.probeDispatch, whose workers add to one unsynchronized sink
// (internal/parallel/dispatch.go; the program's to fix, not this
// package's).
func TestMain(m *testing.M) {
	os.Setenv("GBENCH_TUNE", "off")
	os.Exit(m.Run())
}

// TestSmokeExecutesEveryAdapter runs every workload at tiny scale: one
// timed pass, the traced pass and its extras. An API change elsewhere
// in the repository breaks this test, not the next benchmark run.
func TestSmokeExecutesEveryAdapter(t *testing.T) {
	set, rec := runSet(context.Background(), workloadSpecs, RunConfig{Seed: 42, Trace: true, Smoke: true}, nil)
	specs := perLayerSpecs(tunableNames(set.Host.Tunables))
	declared := map[string]bool{}
	for _, m := range specs {
		declared[m.Name] = true
	}
	emitted := map[string]bool{}
	for _, w := range set.Workloads {
		if w.Failed != 0 || w.Attempted == 0 || w.Passes != 1 {
			t.Errorf("%s: %d passes, %d failed of %d: %v", w.Name, w.Passes, w.Failed, w.Attempted, w.Failures)
		}
		for _, m := range comparedMetrics {
			if _, ok := w.EndToEnd[m]; !ok {
				t.Errorf("%s: no end-to-end metric %s", w.Name, m)
			}
		}
		for n := range w.PerLayer {
			emitted[n] = true
		}
		for _, n := range w.Missing {
			emitted[n] = true
		}
		// The one-line result carries exactly the declared names.
		for _, traced := range []bool{false, true} {
			line := newContractLine(w, traced, specs)
			want := len(endToEndSpecs)
			if traced {
				want = len(specs)
			}
			if _, err := json.Marshal(line); err != nil || len(line.Metrics) != want {
				t.Errorf("%s: one-line result with %d metrics (want %d), err %v", w.Name, len(line.Metrics), want, err)
			}
		}
	}
	for n := range emitted {
		if !declared[n] {
			t.Errorf("per-layer metric %s is emitted but not declared in perLayerSpecs", n)
		}
	}
	// Every layer must have reported through some workload, even at
	// smoke scale (which runs two kernels, so only their modules).
	for _, n := range []string{
		"dbg.run_s", "chain.prepare_s", "parallel.speedup.chain", "core.driver_self_s", "trace.overhead_frac",
		"scenario.stage.phmm.busy_s", "scenario.stage.smem.occupancy", "scenario.fused_over_staged",
		"shard.job_s.chain", "shard.wait_frac", "shard.encode_ns_per_task", "tuning.resolve_s", "host.calib_drift",
	} {
		if !emitted[n] {
			t.Errorf("no workload emitted %s", n)
		}
	}
	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("the traced passes recorded no spans")
	}
	for id, self := range SelfTimes(spans) {
		if self < -1e-6 {
			t.Errorf("span %d (%s): negative self time %v", id, spans[id-1].Name, self)
		}
	}
}

func TestCorruptedManifestEntryFailsTheOperation(t *testing.T) {
	spec := findWorkload("scenario-metagenomics")
	cfg := RunConfig{Seed: 42, Smoke: true, Expect: map[string]string{"metagenomics": "0000000000000000"}}
	res := runWorkload(context.Background(), spec.Name, spec.New(), cfg)
	if res.Failed == 0 || res.EndToEnd["failed_frac"].Median == 0 {
		t.Fatalf("a wrong digest in the manifest must count as failed operations: %+v", res)
	}
}
