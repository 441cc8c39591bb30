package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"testing"
)

var updateManifest = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// benchmarkJSON is the root BENCHMARK.json, key for key.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func declared() benchmarkJSON {
	d := benchmarkJSON{
		Command: []string{"go", "run", "./benchmark"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds,
		EndToEnd: endToEndSpecs, PerLayer: perLayerSpecs(tunableNames(resolveTunables())),
	}
	for _, w := range workloadSpecs {
		d.Workloads = append(d.Workloads, workloadJSON{w.Name, w.Why})
	}
	return d
}

func TestBenchmarkJSONAgreesWithTheCode(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := declared()
	if *updateManifest {
		if err := writeJSON(path, want); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json and the benchmark's tables disagree; run go test ./benchmark -run BenchmarkJSON -update\n got: %+v\nwant: %+v", got, want)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of at most 64 letters, digits, _ . -", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range got.Workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range got.EndToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range got.PerLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if w, e, p := len(got.Workloads), len(got.EndToEnd), len(got.PerLayer); w < 2 || w > 8 || e > 16 || p > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics: over the limits 8 / 16 / 128", w, e, p)
	}
}
