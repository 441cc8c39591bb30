package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestResultFileRoundTripAndCompare(t *testing.T) {
	mk := func(wall float64) *ResultSet {
		return &ResultSet{
			Schema: resultSchema, Seed: 42, Seconds: 12,
			Host: HostStamp{NumCPU: 2, GOMAXPROCS: 2, P: 2, GoVersion: "go1.22", Tunables: map[string]int{"x.y": 3}},
			Workloads: []WorkloadResult{{
				Name: "suite-small", Passes: 3, Attempted: 36, Outputs: map[string]string{"fmi": "tasks=1"},
				EndToEnd: map[string]Stat{
					"setup_s":     newStat("s", []float64{0.2}),
					"wall_s":      newStat("s", []float64{wall, wall * 1.01, wall * 0.99}),
					"cpu_s":       newStat("s", []float64{8, 8.1, 7.9}),
					"alloc_mb":    newStat("MB", []float64{250, 250, 250}),
					"failed_frac": newStat("ratio", []float64{0}),
				},
				PerLayer: map[string]float64{"phmm.run_s": 7}, Missing: []string{"parallel.steals"},
			}},
		}
	}
	dir := t.TempDir()
	a, b := mk(7), mk(9)
	pa := filepath.Join(dir, "sub", "a.json")
	if err := writeJSON(pa, a); err != nil {
		t.Fatal(err)
	}
	back, err := readResultSet(pa)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, back) {
		t.Fatalf("round trip changed the set:\n%+v\n%+v", a, back)
	}
	rows, err := compareSets(back, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(comparedMetrics) || regressed(rows) != 1 {
		t.Fatalf("%d rows, %d regressed; want %d rows with wall_s regressed", len(rows), regressed(rows), len(comparedMetrics))
	}
	for _, r := range rows {
		if (r.Metric == "wall_s") != (r.Verdict == VerdictRegressed) {
			t.Errorf("%s: %s", r.Metric, r.Verdict)
		}
	}
	if rows, _ := compareSets(a, a); regressed(rows) != 0 {
		t.Error("a set must not regress against itself")
	}
	b.Workloads[0].Name = "other"
	if _, err := compareSets(a, b); err == nil {
		t.Error("sets with different workloads must not compare")
	}
}
