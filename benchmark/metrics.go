package main

import "sort"

// MetricSpec declares a metric the way BENCHMARK.json does.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndSpecs are the metrics a user of the program would see, the
// same on every workload. Bound is the share of the base's median by
// which a metric may worsen before it counts as a regression. The
// fifth end-to-end number, failed_frac, has an absolute bound of zero
// and travels as the attempted/failed counts of every result.
var endToEndSpecs = []MetricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.15},
}

func boundOf(metric string) float64 {
	for _, m := range endToEndSpecs {
		if m.Name == metric {
			return m.Bound
		}
	}
	return 0 // failed_frac: any increase regresses
}

var (
	kernelModules = []string{"fmindex", "bsw", "dbg", "phmm", "chain", "poa", "abea", "kmercnt", "grm", "nnbase", "pileup", "nnvariant"}
	stageNames    = []string{"bin", "dbg", "phmm", "genotype", "smem", "classify"}
	distModules   = []string{"bsw", "dbg", "chain", "poa", "pileup"}
)

// perLayerSpecs lists every per-layer metric by layer (= module). The
// tunables are whatever the program registers; a new one changes this
// list and fails the schema test until BENCHMARK.json follows.
func perLayerSpecs(tunables []string) []MetricSpec {
	var out []MetricSpec
	add := func(name, unit, better string) { out = append(out, MetricSpec{Name: name, Unit: unit, Better: better}) }
	for _, m := range kernelModules {
		add(m+".run_s", "s", "lower")
		add(m+".prepare_s", "s", "lower")
		add(m+".task_max_to_mean", "ratio", "lower")
	}
	for _, m := range kernelModules {
		add("parallel.speedup."+m, "ratio", "higher")
	}
	add("parallel.util", "ratio", "higher")
	add("parallel.steals", "count", "higher")
	add("core.driver_self_s", "s", "lower")
	add("resilience.retries", "count", "lower")
	add("resilience.timeouts", "count", "lower")
	add("trace.overhead_frac", "ratio", "lower")
	add("scenario.build_s", "s", "lower")
	add("scenario.source_items", "count", "higher")
	add("scenario.outputs", "count", "higher")
	add("scenario.overlap", "ratio", "higher")
	add("scenario.staged_s", "s", "lower")
	add("scenario.fused_over_staged", "ratio", "lower")
	add("scenario.mallocs_per_item", "count", "lower")
	for _, s := range stageNames {
		add("scenario.stage."+s+".busy_s", "s", "lower")
		add("scenario.stage."+s+".occupancy", "ratio", "higher")
		add("scenario.stage."+s+".queue_peak", "count", "lower")
	}
	add("shard.start_s", "s", "lower")
	for _, m := range distModules {
		add("shard.job_s."+m, "s", "lower")
	}
	for _, m := range distModules {
		add("shard.exec_s."+m, "s", "lower")
	}
	add("shard.wait_frac", "ratio", "lower")
	add("shard.coord_prepare_s", "s", "lower")
	add("shard.dist_over_local", "ratio", "lower")
	add("shard.dispatched", "count", "lower")
	add("shard.rescheduled", "count", "lower")
	add("shard.hedged", "count", "lower")
	add("shard.duplicates", "count", "lower")
	add("shard.useful_frac", "ratio", "higher")
	add("shard.encode_ns_per_task", "ns", "lower")
	add("tuning.resolve_s", "s", "lower")
	sorted := append([]string(nil), tunables...)
	sort.Strings(sorted)
	for _, n := range sorted {
		add("tuning."+n, "count", "higher")
	}
	add("host.calib_s", "s", "lower")
	add("host.calib_drift", "ratio", "lower")
	add("host.heap_peak_mb", "MB", "lower")
	add("host.gc_cycles", "count", "lower")
	add("host.gc_pause_ms", "ms", "lower")
	return out
}
