package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// Run is the state one workload run accumulates: the operations it
// attempted and failed, the reference values its outputs are checked
// against, and the per-layer numbers gathered along the way.
type Run struct {
	Workload string
	Seed     int64
	P        int
	Smoke    bool

	// expect maps an operation to the output it must produce. It starts
	// from the committed manifest when the seed is the manifest's;
	// otherwise the first output seen becomes the reference.
	expect map[string]string

	Attempted, Failed int
	Failures          []string
	Layer             map[string]float64
	Missing           map[string]bool
}

// Op counts one operation: ok is whether it completed, got the output
// to verify (skipped when empty or when the operation already failed).
func (r *Run) Op(op string, ok bool, got, errText string) {
	r.Attempted++
	switch {
	case !ok:
		r.fail("%s: %s", op, errText)
	case got != "":
		if want, seen := r.expect[op]; !seen {
			r.expect[op] = got
		} else if want != got {
			r.fail("%s: output %q, want %q", op, got, want)
		}
	}
}

func (r *Run) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// Trace is the benchmark-side tracing state of the one traced pass. A
// nil *Trace is a timed pass: every method is a no-op and Obs is nil.
type Trace struct {
	rec  *Recorder
	root int
	obs  *Observer
}

func (t *Trace) Start(name string) int {
	if t == nil {
		return 0
	}
	return t.rec.Start(t.root, name)
}

func (t *Trace) End(id int) float64 {
	if t == nil {
		return 0
	}
	return t.rec.End(id)
}

func (t *Trace) Obs() *Observer {
	if t == nil {
		return nil
	}
	return t.obs
}

// Workload is one of the benchmark's named workloads.
type Workload interface {
	// Setup does everything that precedes the first timed pass: resident
	// datasets, pipeline build, references, the warm-up pass.
	Setup(ctx context.Context, r *Run) error
	// Pass executes one pass as BENCHMARK.json defines it. With a
	// non-nil Trace it also records spans around each public call and
	// fills r.Layer.
	Pass(ctx context.Context, r *Run, t *Trace)
	// Extras runs what only the traced run measures (thread scaling,
	// the staged twin, the wire codec) after the traced pass.
	Extras(ctx context.Context, r *Run, t *Trace)
	Teardown()
}

// minPasses is the fewest timed passes a run reports a median over.
const minPasses = 3

// RunConfig is what the command line fixes for a workload run.
type RunConfig struct {
	Seed    int64
	Seconds float64 // timed passes repeat until this much time is measured
	Trace   bool
	Smoke   bool
	Expect  map[string]string // manifest entries for this workload and seed, may be nil
	Rec     *Recorder         // receives the traced pass's spans
}

// WorkloadResult is one workload's section of a result file.
type WorkloadResult struct {
	Name      string             `json:"name"`
	Passes    int                `json:"passes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Noisy     bool               `json:"noisy"`
	CalibS    [2]float64         `json:"calib_s"` // calibration loop before and after the workload
	EndToEnd  map[string]Stat    `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Missing   []string           `json:"missing,omitempty"`
	// Outputs are the verified outputs by operation, what
	// -update-digests writes to the manifest.
	Outputs map[string]string `json:"outputs"`
}

// noisyDrift is the calibration drift beyond which a workload's
// timings are marked as the neighbours' doing.
const noisyDrift = 0.10

// markNoisy sets each workload's host.calib_drift, the slower of its
// two calibration readings over the fastest reading of the whole
// process, and marks the workload noisy when that exceeds noisyDrift.
// Comparing against the process's best reading catches a slow spell
// that covers a workload's both ends; with one workload it is simply
// how far its two readings are apart.
func markNoisy(ws []WorkloadResult) {
	best := math.Inf(1)
	for _, w := range ws {
		best = math.Min(best, math.Min(w.CalibS[0], w.CalibS[1]))
	}
	for i := range ws {
		w := &ws[i]
		drift := math.Max(w.CalibS[0], w.CalibS[1])/best - 1
		w.PerLayer["host.calib_s"] = w.CalibS[0]
		w.PerLayer["host.calib_drift"] = drift
		w.Noisy = drift > noisyDrift
	}
}

// runWorkload measures one workload: calibration, set-up, timed passes
// with nothing attached, then (when tracing) one more pass with spans
// and the program's observer, and calibration again.
func runWorkload(ctx context.Context, name string, w Workload, cfg RunConfig) WorkloadResult {
	r := &Run{
		Workload: name, Seed: cfg.Seed, P: threadsP(), Smoke: cfg.Smoke,
		expect: map[string]string{}, Layer: map[string]float64{}, Missing: map[string]bool{},
	}
	for k, v := range cfg.Expect {
		r.expect[k] = v
	}

	setupStart := time.Now()
	calibBefore := calibrate()
	resolveStart := time.Now()
	tunables := resolveTunables()
	r.Layer["tuning.resolve_s"] = time.Since(resolveStart).Seconds()
	for n, v := range tunables {
		r.Layer["tuning."+n] = float64(v)
	}
	setupErr := w.Setup(ctx, r)
	setupS := time.Since(setupStart).Seconds()

	var walls, cpus, allocs []float64
	if setupErr != nil {
		r.Attempted++
		r.fail("setup: %v", setupErr)
	} else {
		passes, seconds := minPasses, cfg.Seconds
		if cfg.Smoke {
			passes, seconds = 1, 0
		}
		for measured := 0.0; len(walls) < passes || measured < seconds; {
			before := readUsage()
			w.Pass(ctx, r, nil)
			c := before.until(readUsage())
			walls, cpus, allocs = append(walls, c.WallS), append(cpus, c.CPUS), append(allocs, c.AllocMB)
			measured += c.WallS
			fmt.Fprintf(os.Stderr, "benchmark: %s pass %d: wall %.3f s, cpu %.3f s, alloc %.1f MB\n", name, len(walls), c.WallS, c.CPUS, c.AllocMB)
		}
		if cfg.Trace {
			tracedPass(ctx, w, r, cfg.Rec, len(walls)+1, median(walls))
		}
	}
	w.Teardown()

	res := WorkloadResult{
		Name: name, Passes: len(walls), Attempted: r.Attempted, Failed: r.Failed, Failures: r.Failures,
		CalibS: [2]float64{calibBefore, calibrate()},
		EndToEnd: map[string]Stat{
			"setup_s":     newStat("s", []float64{setupS}),
			"wall_s":      newStat("s", walls),
			"cpu_s":       newStat("s", cpus),
			"alloc_mb":    newStat("MB", allocs),
			"failed_frac": newStat("ratio", []float64{float64(r.Failed) / float64(r.Attempted)}),
		},
		PerLayer: r.Layer, Outputs: r.expect,
	}
	for m := range r.Missing {
		res.Missing = append(res.Missing, m)
	}
	sort.Strings(res.Missing)
	return res
}

// tracedPass runs one more pass with benchmark-side spans and the
// program's existing observer attached, then the traced-only extras.
func tracedPass(ctx context.Context, w Workload, r *Run, rec *Recorder, pass int, untracedWall float64) {
	rec.Scope(r.Workload, pass)
	root := rec.Start(0, "pass")
	t := &Trace{rec: rec, root: root, obs: newObserver()}
	heap := startHeapSampler()
	before := readUsage()
	w.Pass(ctx, r, t)
	c := before.until(readUsage())
	r.Layer["host.heap_peak_mb"] = heap.Stop()
	rec.End(root)

	r.Layer["host.gc_cycles"] = float64(c.GCCycles)
	r.Layer["host.gc_pause_ms"] = c.GCPauseMs
	r.Layer["parallel.util"] = c.CPUS / (float64(r.P) * c.WallS)
	r.Layer["trace.overhead_frac"] = c.WallS/untracedWall - 1
	// Harvested from the program's observer under the names it uses.
	for _, counter := range []string{"parallel.steals", "resilience.retries", "resilience.timeouts"} {
		if v, ok := t.obs.CounterSum(counter); ok {
			r.Layer[counter] = v
		} else {
			r.Missing[counter] = true
		}
	}

	t.root = rec.Start(0, "extras")
	w.Extras(ctx, r, t)
	rec.End(t.root)
}
