// Command benchmark is the repository's benchmark: five named
// workloads driven through the program's public entry points, four
// timed end-to-end metrics plus a failure count on each, and per-layer
// numbers from one extra traced pass. BENCHMARK.json at the repository
// root declares it; README.md in this directory explains every choice.
//
//	go run ./benchmark -seed 42                       all workloads, timed + traced
//	go run ./benchmark -workload dist-2 -trace 0      one workload, one-line JSON result
//	go run ./benchmark -compare a.json b.json         judge set b against set a
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// defaultSeconds is BENCHMARK.json's run_seconds: timed passes repeat
// until this much time has been measured (and at least minPasses).
const defaultSeconds = 12

// buildDir is where the benchmark leaves what it writes; .gitignore
// names it.
const buildDir = ".bench_build"

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print the one-line JSON result (default: all five)")
		seed     = flag.Int64("seed", 42, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", defaultSeconds, "measure timed passes for this long (at least 3 passes)")
		trace    = flag.Int("trace", 1, "1: add the traced pass and report per-layer metrics; 0: timed passes only")
		spans    = flag.String("spans", filepath.Join(buildDir, "spans.ndjson"), "span file the traced passes write")
		out      = flag.String("out", filepath.Join(buildDir, "results.json"), "result file (with -compare: both sets and the verdicts)")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
		update   = flag.Bool("update-digests", false, "rewrite the correctness manifest from this run's outputs")
		digests  = flag.String("digests", manifestPath, "correctness manifest")
		smoke    = flag.Bool("smoke", false, "tiny parameters, one pass: exercises every adapter, measures nothing")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args(), *out))
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	specs := workloadSpecs
	if *workload != "" {
		spec := findWorkload(*workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		specs = []WorkloadSpec{*spec}
	}
	// The program persists start-up probe results under the user's
	// cache directory; keep that inside the checkout.
	if os.Getenv("GBENCH_TUNE_CACHE_DIR") == "" {
		if abs, err := filepath.Abs(filepath.Join(buildDir, "tune")); err == nil {
			os.Setenv("GBENCH_TUNE_CACHE_DIR", abs)
		}
	}
	var manifest *Manifest
	if !*update && !*smoke {
		m, err := readManifest(*digests)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: correctness manifest: %v\n", err)
			os.Exit(1)
		}
		manifest = m
	}

	set, rec := runSet(context.Background(), specs, RunConfig{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Smoke: *smoke}, manifest)
	failed := 0
	for _, w := range set.Workloads {
		failed += w.Failed
		for _, f := range w.Failures {
			fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED %s\n", w.Name, f)
		}
	}
	if *trace != 0 {
		if err := WriteSpans(*spans, rec.Spans()); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: span file: %v\n", err)
			os.Exit(1)
		}
	}
	if *update && failed == 0 {
		m := Manifest{Seed: *seed, Workloads: map[string]map[string]string{}}
		for _, w := range set.Workloads {
			m.Workloads[w.Name] = w.Outputs
		}
		if err := writeJSON(*digests, m); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: manifest: %v\n", err)
			os.Exit(1)
		}
	}

	perLayer := perLayerSpecs(tunableNames(set.Host.Tunables))
	if *workload != "" {
		line, err := json.Marshal(newContractLine(set.Workloads[0], *trace != 0, perLayer))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	} else {
		printSet(set, perLayer)
		if err := writeJSON(*out, set); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: result file: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nresults: %s\n", *out)
		if *trace != 0 {
			fmt.Printf("spans:   %s\n", *spans)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func tunableNames(t map[string]int) []string {
	names := make([]string, 0, len(t))
	for n := range t {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runSet measures the given workloads one after another in this
// process, as one closed loop: a single driver goroutine, passes back
// to back.
func runSet(ctx context.Context, specs []WorkloadSpec, cfg RunConfig, manifest *Manifest) (*ResultSet, *Recorder) {
	rec := NewRecorder()
	cfg.Rec = rec
	set := &ResultSet{Schema: resultSchema, Seed: cfg.Seed, Seconds: cfg.Seconds}
	for _, spec := range specs {
		fmt.Fprintf(os.Stderr, "benchmark: %s ...\n", spec.Name)
		cfg.Expect = manifest.expectFor(spec.Name, cfg.Seed)
		set.Workloads = append(set.Workloads, runWorkload(ctx, spec.Name, spec.New(), cfg))
	}
	markNoisy(set.Workloads)
	set.Host = hostStamp(resolveTunables())
	return set, rec
}

func printSet(set *ResultSet, perLayer []MetricSpec) {
	h := set.Host
	fmt.Printf("host: %d cpu, GOMAXPROCS %d, P %d, %s %s/%s, simd %s, kernel %s; seed %d\n\n",
		h.NumCPU, h.GOMAXPROCS, h.P, h.GoVersion, h.OS, h.Arch, h.SIMD, h.Kernel, set.Seed)
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tiqr\tpasses\tnote")
	for _, w := range set.Workloads {
		note := ""
		if w.Noisy {
			note = fmt.Sprintf("noisy: calibration loop %.0f%% slower than the run's best", 100*w.PerLayer["host.calib_drift"])
		}
		for _, m := range comparedMetrics {
			s := w.EndToEnd[m]
			if m == "failed_frac" {
				note = fmt.Sprintf("%d failed / %d attempted", w.Failed, w.Attempted)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.3g\t%d\t%s\n", w.Name, m, s.Unit, s.Median, s.IQR, s.N, note)
		}
	}
	tw.Flush()
	for _, w := range set.Workloads {
		if len(w.PerLayer) == 0 {
			continue
		}
		fmt.Printf("\nper-layer, %s (traced pass):\n", w.Name)
		tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
		for _, m := range perLayer {
			if v, ok := w.PerLayer[m.Name]; ok {
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", m.Name, v, m.Unit)
			}
		}
		for _, m := range w.Missing {
			fmt.Fprintf(tw, "  %s\tmissing\t(the program published no such counter)\n", m)
		}
		tw.Flush()
	}
}

func runCompare(args []string, out string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
		return 2
	}
	rows, err := func() ([]CompareRow, error) {
		a, err := readResultSet(args[0])
		if err != nil {
			return nil, err
		}
		b, err := readResultSet(args[1])
		if err != nil {
			return nil, err
		}
		rows, err := compareSets(a, b)
		if err != nil || !flagSet("out") {
			return rows, err
		}
		return rows, writeJSON(out, struct {
			A       *ResultSet   `json:"set_a"`
			B       *ResultSet   `json:"set_b"`
			Compare []CompareRow `json:"compare"`
		}{a, b, rows})
	}()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	printCompare(os.Stdout, rows)
	if n := regressed(rows); n > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d row(s) regressed\n", n)
		return 1
	}
	return 0
}

func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}
