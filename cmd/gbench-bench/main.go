// Command gbench-bench is the benchmark-regression harness: it runs
// the before/after microbenchmark pair for each optimized kernel
// in-process (scalar vs bit-parallel, allocating vs pooled), emits the
// results as a stable JSON report (BENCH_PR3.json schema, see
// internal/benchjson), and can diff two such reports with a tolerance
// for CI gating.
//
// Usage:
//
//	gbench-bench -o BENCH_PR3.json                 # full run, ~1s per variant
//	gbench-bench -benchtime 1x -o now.json         # CI smoke: one iteration each
//	gbench-bench -kernels bsw,phmm                 # subset, report to stdout
//	gbench-bench -reps 3 -label PR7 -history-append BENCH_HISTORY.ndjson
//	gbench-bench -compare -tolerance 10 BENCH_PR3.json now.json
//	gbench-bench -compare -history BENCH_HISTORY.ndjson BENCH_PR5.json now.json
//
// Reports are stamped with the measuring host (OS/arch/cores/
// GOMAXPROCS) and, with -label, a PR tag; -reps N measures each
// variant N times and keeps the fastest run, squeezing scheduler noise
// out of records meant to be compared across months. -history-append
// appends the report as one NDJSON line to the append-only history
// file the trend gate reads.
//
// In -compare mode the exit status is 1 when any baseline pair is
// missing from the current report, its optimized variant slowed down
// by more than the tolerance factor (in absolute ns/op OR in speedup
// ratio — both variants slowing together is still a regression), or,
// with -history, the trend gate finds a corroborated drift below the
// pair's best-ever record. Thread pairs the host cannot exercise are
// reported as skipped, never as passed.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/abea"
	"repro/internal/benchjson"
	"repro/internal/bsw"
	"repro/internal/chain"
	"repro/internal/cpufeat"
	"repro/internal/dbg"
	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/grm"
	"repro/internal/kmercnt"
	"repro/internal/phmm"
	"repro/internal/pileup"
	"repro/internal/poa"
	"repro/internal/scratch"
	"repro/internal/seq2"
	"repro/internal/signalsim"
	"repro/internal/simio"
)

// pairSpec is one kernel's before/after benchmark pair. Inputs are
// built once (deterministic seeds) and shared by both variants so the
// two measurements cover identical work.
type pairSpec struct {
	kernel, pair  string
	threads       int // thread count of the optimized side, 0 for single-threaded pairs
	baselineName  string
	optimizedName string
	baseline      func(b *testing.B)
	optimized     func(b *testing.B)
}

func main() {
	var (
		out       = flag.String("o", "", "write the report JSON to this file (default stdout)")
		benchtime = flag.String("benchtime", "", `benchmark duration per variant, e.g. "1x" or "200ms" (default 1s)`)
		kernels   = flag.String("kernels", "", "comma-separated kernel filter (default all)")
		compare   = flag.Bool("compare", false, "compare two report files: gbench-bench -compare baseline.json current.json")
		tolerance = flag.Float64("tolerance", 1.25, "allowed slowdown factor on optimized paths in -compare mode")
		threads   = flag.Int("threads", 4, "thread count for the parallel side of the */threads pairs")
		reps      = flag.Int("reps", 1, "measure each variant this many times and keep the fastest run")
		label     = flag.String("label", "", `tag stamped on the report, e.g. "PR7" (history records should carry one)`)
		note      = flag.String("note", "", "free-form provenance note stamped on the report")
		histOut   = flag.String("history-append", "", "append the report as one NDJSON line to this history file")
		histIn    = flag.String("history", "", "in -compare mode, also run the trend gate over this NDJSON history file")
		scenTrace = flag.String("scenario-trace", "", "run each scenario fused once and write its span trace as NDJSON to this file (no benchmarking)")
	)
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *tolerance, *histIn))
	}
	if *scenTrace != "" {
		if err := writeScenarioTrace(*scenTrace); err != nil {
			fmt.Fprintf(os.Stderr, "gbench-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote scenario trace to %s\n", *scenTrace)
		return
	}

	// Register the testing flags so the in-process benchmarks honor
	// -benchtime; everything else stays at its default.
	testing.Init()
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			fmt.Fprintf(os.Stderr, "gbench-bench: bad -benchtime %q: %v\n", *benchtime, err)
			os.Exit(2)
		}
	}

	want := map[string]bool{}
	for _, k := range strings.Split(*kernels, ",") {
		if k = strings.TrimSpace(k); k != "" {
			want[k] = true
		}
	}

	if *reps < 1 {
		*reps = 1
	}
	report := benchjson.New()
	report.Label = *label
	report.Note = *note
	report.Time = time.Now().UTC().Format(time.RFC3339)
	report.Host = currentHost()
	for _, def := range allPairDefs(*threads) {
		if len(want) > 0 && !want[def.kernel] {
			continue
		}
		// Inputs build lazily, after the kernel filter: a -kernels smoke
		// run must not pay for the big excluded workloads (the fmindex
		// smem pair builds a 32 Mbp index).
		spec := def.build()
		fmt.Fprintf(os.Stderr, "bench %s/%s\n", spec.kernel, spec.pair)
		base := bestOf(*reps, spec.baseline)
		opt := bestOf(*reps, spec.optimized)
		report.Add(spec.kernel, spec.pair,
			metricsOf(spec.baselineName, base),
			metricsOf(spec.optimizedName, opt))
		report.Entries[len(report.Entries)-1].Threads = spec.threads
	}
	if len(scenarioMismatches) > 0 {
		for _, m := range scenarioMismatches {
			fmt.Fprintf(os.Stderr, "gbench-bench: DIGEST MISMATCH %s\n", m)
		}
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbench-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := benchjson.Write(w, report); err != nil {
		fmt.Fprintf(os.Stderr, "gbench-bench: %v\n", err)
		os.Exit(1)
	}
	for _, e := range report.Entries {
		fmt.Fprintf(os.Stderr, "  %-16s %9.0f ns/op -> %9.0f ns/op  (%.2fx, allocs %d -> %d)\n",
			e.Kernel+"/"+e.Pair, e.Baseline.NsPerOp, e.Optimized.NsPerOp,
			e.Speedup, e.Baseline.AllocsPerOp, e.Optimized.AllocsPerOp)
	}
	if *histOut != "" {
		if err := benchjson.AppendHistory(*histOut, report); err != nil {
			fmt.Fprintf(os.Stderr, "gbench-bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "appended %q record to %s\n", report.Label, *histOut)
	}
}

// bestOf runs the benchmark reps times and keeps the fastest run: a
// record meant to survive in the history file should capture what the
// code CAN do, not what the scheduler allowed on one sample. The
// committed PR5 pileup record is the cautionary tale — one noisy
// sample read as an 18% regression.
func bestOf(reps int, f func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(f)
	for r := 1; r < reps; r++ {
		if got := testing.Benchmark(f); nsPerOp(got) < nsPerOp(best) {
			best = got
		}
	}
	return best
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

func currentHost() *benchjson.Host {
	return &benchjson.Host{
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		SIMD:       cpufeat.String(),
	}
}

func runCompare(paths []string, tolerance float64, historyPath string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "gbench-bench: -compare needs exactly two report files")
		return 2
	}
	read := func(p string) *benchjson.Report {
		f, err := os.Open(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbench-bench: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		r, err := benchjson.Read(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbench-bench: %s: %v\n", p, err)
			os.Exit(2)
		}
		return r
	}
	baseline, current := read(paths[0]), read(paths[1])
	res := benchjson.CompareDetailed(baseline, current, benchjson.CompareOptions{
		NsTolerance: tolerance, SpeedupTolerance: tolerance,
	})
	failed := false
	for _, s := range res.Skipped {
		fmt.Printf("SKIP %s\n", s)
	}
	for _, g := range res.Regressions {
		fmt.Printf("REGRESSION %s\n", g)
		failed = true
	}
	if len(res.Regressions) == 0 {
		fmt.Printf("OK: %d pairs within %.2fx of baseline (%d skipped)\n",
			len(baseline.Entries)-len(res.Skipped), tolerance, len(res.Skipped))
	}

	if historyPath != "" {
		records, dropped, err := benchjson.ReadHistoryFile(historyPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gbench-bench: %s: %v\n", historyPath, err)
			return 2
		}
		if dropped {
			fmt.Fprintf(os.Stderr, "gbench-bench: %s: dropped a truncated trailing record\n", historyPath)
		}
		v := benchjson.TrendGate(records, benchjson.TrendOptions{})
		for _, s := range v.Skipped {
			fmt.Printf("TREND SKIP %s\n", s)
		}
		for _, w := range v.Warnings {
			fmt.Printf("TREND WARN %s\n", w)
		}
		for _, f := range v.Failures {
			fmt.Printf("TREND FAIL %s\n", f)
			failed = true
		}
		if len(v.Failures) == 0 {
			fmt.Printf("TREND OK: latest record holds against %d earlier (%d warnings, %d skipped)\n",
				len(records)-1, len(v.Warnings), len(v.Skipped))
		}
	}
	if failed {
		return 1
	}
	return 0
}

func metricsOf(name string, r testing.BenchmarkResult) benchjson.Metrics {
	return benchjson.Metrics{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

// pairDef names a pair's kernel without building its inputs; the
// build hook constructs the workload (deterministic seeds) only when
// the kernel passes the -kernels filter.
type pairDef struct {
	kernel string
	build  func() pairSpec
}

// allPairDefs lists every kernel's before/after pair. Workloads mirror
// the BenchmarkXxx pairs in each kernel's opt_test.go: realistic sizes,
// deterministic seeds. threads sets the parallel side of the
// */threads scaling pairs.
func allPairDefs(threads int) []pairDef {
	defs := []pairDef{
		{"bsw", bswPair},
		{"phmm", phmmPair},
		{"phmm", phmmLanesPair},
		{"kmercnt", kmercntPair},
		{"kmercnt", kmercntBatchedPair},
		{"fmindex", fmindexPair},
		{"fmindex", fmindexSmemPair},
		{"poa", poaPair},
		{"poa", poaLanesPair},
		{"abea", abeaPair},
		{"abea", abeaLanesPair},
		{"dbg", dbgPair},
		{"pileup", pileupPair},
		{"grm", grmPair},
		{"chain", func() pairSpec { return chainThreadsPair(threads) }},
		{"grm", func() pairSpec { return grmThreadsPair(threads) }},
		{"pileup", func() pairSpec { return pileupThreadsPair(threads) }},
		{"fmindex", func() pairSpec { return fmindexThreadsPair(threads) }},
		{"kmercnt", func() pairSpec { return kmercntThreadsPair(threads) }},
	}
	return append(defs, scenarioPairDefs()...)
}

// pileupPair measures the packed match-run counting path against the
// per-base reference walker over region-split simulated alignments —
// the same work CountRegion does per suite task.
func pileupPair() pairSpec {
	rng := rand.New(rand.NewSource(71))
	ref := genome.Random(rng, 20_000)
	alnCfg := simio.DefaultAlignSim()
	alnCfg.MeanReadLen = 800
	alns := simio.SimulateAlignments(rng, ref, 400, alnCfg)
	regions := pileup.SplitRegions(len(ref), alns, 5_000)
	return pairSpec{
		kernel: "pileup", pair: "count",
		baselineName: "pileup/count/scalar", optimizedName: "pileup/count/packed",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pileup.CountRegionScalar(regions[i%len(regions)])
			}
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pileup.CountRegion(regions[i%len(regions)])
			}
		},
	}
}

// grmPair measures the tile-blocked relationship-matrix build against
// the naive triple loop on a population small enough that the naive
// side finishes in benchmark time.
func grmPair() pairSpec {
	rng := rand.New(rand.NewSource(72))
	g := grm.Simulate(rng, 96, 512, 0.1)
	return pairSpec{
		kernel: "grm", pair: "compute",
		baselineName: "grm/compute/naive", optimizedName: "grm/compute/blocked",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				grm.ComputeNaive(g)
			}
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				grm.Compute(g, 64, 1)
			}
		},
	}
}

// The */threads axis: the same kernel execution at one thread and at
// the -threads flag's count, for the inter-task-parallel kernels whose
// pairs above are single-threaded micro pairs. The pair speedup is the
// parallel scaling factor.

func clampThreads(threads int) int {
	if threads < 1 {
		return 1
	}
	return threads
}

func tName(threads int) string { return fmt.Sprintf("t%d", threads) }

// chainThreadsPair: one task per read pair, anchors from real
// minimizer hits.
func chainThreadsPair(threads int) pairSpec {
	threads = clampThreads(threads)
	rng := rand.New(rand.NewSource(81))
	tasks := make([]chain.Task, 48)
	for i := range tasks {
		base := genome.Random(rng, 2_000)
		other := base.Clone()
		for m := 0; m < 40; m++ {
			other[rng.Intn(len(other))] = genome.Base(rng.Intn(4))
		}
		tasks[i] = chain.Task{Anchors: chain.SharedAnchors(base, other, 15, 10, 64)}
	}
	chainCfg := chain.DefaultConfig()
	return pairSpec{
		kernel: "chain", pair: "threads", threads: threads,
		baselineName: "chain/threads/t1", optimizedName: "chain/threads/" + tName(threads),
		baseline: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chain.RunKernel(tasks, chainCfg, 1)
			}
		},
		optimized: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chain.RunKernel(tasks, chainCfg, threads)
			}
		},
	}
}

// grmThreadsPair: tile tasks over a larger population than the micro
// pair.
func grmThreadsPair(threads int) pairSpec {
	threads = clampThreads(threads)
	grng := rand.New(rand.NewSource(82))
	gts := grm.Simulate(grng, 256, 1_024, 0.1)
	return pairSpec{
		kernel: "grm", pair: "threads", threads: threads,
		baselineName: "grm/threads/t1", optimizedName: "grm/threads/" + tName(threads),
		baseline: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				grm.Compute(gts, 64, 1)
			}
		},
		optimized: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				grm.Compute(gts, 64, threads)
			}
		},
	}
}

// pileupThreadsPair: region tasks over simulated alignments.
func pileupThreadsPair(threads int) pairSpec {
	threads = clampThreads(threads)
	prng := rand.New(rand.NewSource(83))
	ref := genome.Random(prng, 50_000)
	alnCfg := simio.DefaultAlignSim()
	alnCfg.MeanReadLen = 800
	alns := simio.SimulateAlignments(prng, ref, 1_000, alnCfg)
	regions := pileup.SplitRegions(len(ref), alns, 5_000)
	return pairSpec{
		kernel: "pileup", pair: "threads", threads: threads,
		baselineName: "pileup/threads/t1", optimizedName: "pileup/threads/" + tName(threads),
		baseline: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pileup.RunKernel(regions, 1)
			}
		},
		optimized: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pileup.RunKernel(regions, threads)
			}
		},
	}
}

// fmindexThreadsPair: the fmi kernel (per-worker batch engines) at one
// thread and at -threads.
func fmindexThreadsPair(threads int) pairSpec {
	threads = clampThreads(threads)
	rng := rand.New(rand.NewSource(84))
	g := genome.Random(rng, 1<<20)
	x := fmindex.Build(g)
	reads := sampledReads(rng, g, 192, 100, 2)
	cfg := fmindex.DefaultKernelConfig()
	return pairSpec{
		kernel: "fmindex", pair: "threads", threads: threads,
		baselineName: "fmindex/threads/t1", optimizedName: "fmindex/threads/" + tName(threads),
		baseline: func(b *testing.B) {
			c := cfg
			c.Threads = 1
			for i := 0; i < b.N; i++ {
				fmindex.RunKernel(x, reads, c)
			}
		},
		optimized: func(b *testing.B) {
			c := cfg
			c.Threads = threads
			for i := 0; i < b.N; i++ {
				fmindex.RunKernel(x, reads, c)
			}
		},
	}
}

// kmercntThreadsPair: the kmer-cnt kernel (private tables, wave-batched
// inserts) at one thread and at -threads.
func kmercntThreadsPair(threads int) pairSpec {
	threads = clampThreads(threads)
	rng := rand.New(rand.NewSource(85))
	reads := make([]genome.Seq, 96)
	for i := range reads {
		reads[i] = genome.Random(rng, 1_500)
	}
	return pairSpec{
		kernel: "kmercnt", pair: "threads", threads: threads,
		baselineName: "kmercnt/threads/t1", optimizedName: "kmercnt/threads/" + tName(threads),
		baseline: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kmercnt.RunKernel(reads, 17, 1, kmercnt.Linear)
			}
		},
		optimized: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kmercnt.RunKernel(reads, 17, threads, kmercnt.Linear)
			}
		},
	}
}

func bswPair() pairSpec {
	rng := rand.New(rand.NewSource(1234))
	pairs := make([]bsw.Pair, 64)
	for i := range pairs {
		n := 80 + rng.Intn(120)
		q := genome.Random(rng, n)
		t := q.Clone()
		for k := 0; k < 8; k++ {
			t[rng.Intn(len(t))] = genome.Base(rng.Intn(4))
		}
		pairs[i] = bsw.Pair{Query: q, Target: t}
	}
	p := bsw.DefaultParams()
	return pairSpec{
		kernel: "bsw", pair: "align",
		baselineName: "bsw/align/scalar", optimizedName: "bsw/align/packed",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				bsw.Align(pr.Query, pr.Target, p)
			}
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			arena := scratch.New()
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				bsw.AlignInto(pr.Query, pr.Target, p, arena)
			}
		},
	}
}

func phmmPair() pairSpec {
	rng := rand.New(rand.NewSource(14))
	rg := &phmm.Region{}
	for h := 0; h < 4; h++ {
		rg.Haps = append(rg.Haps, genome.Random(rng, 100+rng.Intn(100)))
	}
	for r := 0; r < 8; r++ {
		m := 10 + rng.Intn(150)
		read := genome.Random(rng, m)
		qual := make([]byte, m)
		for i := range qual {
			qual[i] = byte(10 + rng.Intn(40))
		}
		rg.Reads = append(rg.Reads, read)
		rg.Quals = append(rg.Quals, qual)
	}
	return pairSpec{
		kernel: "phmm", pair: "region",
		baselineName: "phmm/region/alloc", optimizedName: "phmm/region/pooled",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				phmm.EvaluateRegion(rg)
			}
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			s := phmm.NewScratch()
			for i := 0; i < b.N; i++ {
				phmm.EvaluateRegionInto(rg, s)
			}
		},
	}
}

// phmmLanesPair measures the lane-batched region evaluation against
// the scalar reference on lane-friendly regions: haplotype counts in
// the dozens (GATK's assembler emits up to 128 candidates per active
// region), short reads against longer haplotypes, mirroring the phmm
// kernel workload's geometry.
func phmmLanesPair() pairSpec {
	rng := rand.New(rand.NewSource(15))
	regions := make([]*phmm.Region, 6)
	for i := range regions {
		hapLen := 120 + rng.Intn(180)
		base := genome.Random(rng, hapLen)
		rg := &phmm.Region{}
		nh := 20 + rng.Intn(13)
		for h := 0; h < nh; h++ {
			hap := base.Clone()
			for m := 0; m < h%8; m++ {
				hap[rng.Intn(len(hap))] = genome.Base(rng.Intn(4))
			}
			rg.Haps = append(rg.Haps, hap)
		}
		for r := 0; r < 6+rng.Intn(10); r++ {
			rl := 40 + rng.Intn(40)
			start := rng.Intn(hapLen - rl)
			read := base[start : start+rl].Clone()
			for k := 0; k < rl/30+1; k++ {
				read[rng.Intn(rl)] = genome.Base(rng.Intn(4))
			}
			qual := make([]byte, rl)
			for q := range qual {
				qual[q] = byte(20 + rng.Intn(20))
			}
			rg.Reads = append(rg.Reads, read)
			rg.Quals = append(rg.Quals, qual)
		}
		regions[i] = rg
	}
	return pairSpec{
		kernel: "phmm", pair: "lanes",
		baselineName: "phmm/lanes/scalar", optimizedName: "phmm/lanes/lane8",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			s := phmm.NewScratch()
			for i := 0; i < b.N; i++ {
				phmm.EvaluateRegionScalarInto(regions[i%len(regions)], s)
			}
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			s := phmm.NewScratch()
			for i := 0; i < b.N; i++ {
				phmm.EvaluateRegionInto(regions[i%len(regions)], s)
			}
		},
	}
}

func kmercntPair() pairSpec {
	rng := rand.New(rand.NewSource(22))
	const k = 17
	reads := make([]genome.Seq, 32)
	for i := range reads {
		reads[i] = genome.Random(rng, 1000)
	}
	return pairSpec{
		kernel: "kmercnt", pair: "count",
		baselineName: "kmercnt/count/scalar", optimizedName: "kmercnt/count/packed",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			tb := kmercnt.NewTable(1<<16, kmercnt.Linear)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kmercnt.CountSeq(tb, reads[i%len(reads)], k)
			}
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			tb := kmercnt.NewTable(1<<16, kmercnt.Linear)
			var buf []uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := seq2.PackInto(buf, reads[i%len(reads)])
				buf = p.WordsSlice()
				kmercnt.CountSeqPacked(tb, p, k)
			}
		},
	}
}

// sampledReads draws reads of length l from g with a few point
// mutations each — genome-derived reads walk long SMEM chains, the
// workload the fmi kernel exists to measure.
func sampledReads(rng *rand.Rand, g genome.Seq, n, l, muts int) []genome.Seq {
	reads := make([]genome.Seq, n)
	for i := range reads {
		start := rng.Intn(len(g) - l)
		r := g[start : start+l].Clone()
		for m := 0; m < muts; m++ {
			r[rng.Intn(l)] = genome.Base(rng.Intn(4))
		}
		reads[i] = r
	}
	return reads
}

// fmindexSmemPair measures the lock-step batched SMEM engine against
// the serial per-read walk. The 32 Mbp index's Occ blocks (~64 MB)
// bury the L2 and the DTLB reach, so the serial side pays exposed
// miss latency on every dependent extension; the batched side
// overlaps W of those misses via software prefetch (and allocates
// nothing per anchor). One op = one sweep over the read set,
// identical work on both sides — SMEMs and lookup counts are bit-equal
// (batch_test.go). The index build takes tens of seconds; smoke runs
// exclude this pair via -kernels and never pay for it (lazy pairDefs).
func fmindexSmemPair() pairSpec {
	rng := rand.New(rand.NewSource(36))
	g := genome.Random(rng, 1<<25)
	x := fmindex.Build(g)
	reads := sampledReads(rng, g, 128, 250, 3)
	return pairSpec{
		kernel: "fmindex", pair: "smem",
		baselineName: "fmindex/smem/serial", optimizedName: "fmindex/smem/batched",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			var lk uint64
			var smems int
			for i := 0; i < b.N; i++ {
				for _, r := range reads {
					smems += len(x.FindSMEMs(r, 19, 1, &lk))
				}
			}
			_ = smems
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			e := fmindex.NewBatchEngine(x, 0, nil)
			var lk uint64
			var smems int
			emit := func(_ int, s []fmindex.SMEM, l uint64) {
				smems += len(s)
				lk += l
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Run(reads, 19, 1, nil, emit); err != nil {
					b.Fatal(err)
				}
			}
			_ = smems
		},
	}
}

// kmercntBatchedPair measures wave-batched hash inserts against the
// plain packed counter on a table whose slot arrays (~96 MB keys +
// counts) dwarf the L2 and thrash the DTLB: every insert's primary
// probe is a random line on a random page, serial misses on the plain
// side, overlapped prefetched ones on the batched side. At L2-resident
// table sizes the pair reads ~1x — the OOO window already overlaps the
// independent insert chains — so the size is the point, mirroring the
// paper's 8 GB k-mer table regime. Tables are bit-identical
// (batched_test.go).
func kmercntBatchedPair() pairSpec {
	rng := rand.New(rand.NewSource(23))
	const k = 17
	reads := make([]genome.Seq, 512)
	packed := make([]seq2.Packed, len(reads))
	for i := range reads {
		reads[i] = genome.Random(rng, 2_000)
		packed[i] = seq2.Pack(reads[i])
	}
	return pairSpec{
		kernel: "kmercnt", pair: "batched",
		baselineName: "kmercnt/batched/plain", optimizedName: "kmercnt/batched/wave",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			tb := kmercnt.NewTable(1<<23, kmercnt.Linear)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kmercnt.CountSeqPacked(tb, packed[i%len(packed)], k)
			}
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			tb := kmercnt.NewTable(1<<23, kmercnt.Linear)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kmercnt.CountSeqPackedBatched(tb, packed[i%len(packed)], k)
			}
		},
	}
}

func fmindexPair() pairSpec {
	rng := rand.New(rand.NewSource(35))
	g := genome.Random(rng, 1<<16)
	x := fmindex.Build(g)
	positions := make([]int, 1024)
	for i := range positions {
		positions[i] = rng.Intn(x.TextLen() + 1)
	}
	return pairSpec{
		kernel: "fmindex", pair: "occ4",
		baselineName: "fmindex/occ4/scalar", optimizedName: "fmindex/occ4/packed",
		baseline: func(b *testing.B) {
			var sink int32
			for i := 0; i < b.N; i++ {
				c := x.Occ4Reference(positions[i%len(positions)])
				sink += c[0]
			}
			_ = sink
		},
		optimized: func(b *testing.B) {
			var sink int32
			for i := 0; i < b.N; i++ {
				c := x.Occ4(positions[i%len(positions)])
				sink += c[0]
			}
			_ = sink
		},
	}
}

func poaPair() pairSpec {
	rng := rand.New(rand.NewSource(44))
	windows := make([]*poa.Window, 8)
	for i := range windows {
		base := genome.Random(rng, 50+rng.Intn(150))
		w := &poa.Window{}
		for s := 0; s < 3+rng.Intn(5); s++ {
			seq := base.Clone()
			for k := 0; k < len(seq)/15+1; k++ {
				seq[rng.Intn(len(seq))] = genome.Base(rng.Intn(4))
			}
			w.Sequences = append(w.Sequences, seq)
		}
		windows[i] = w
	}
	p := poa.DefaultParams()
	return pairSpec{
		kernel: "poa", pair: "consensus",
		baselineName: "poa/consensus/fresh", optimizedName: "poa/consensus/pooled",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				poa.ConsensusOf(windows[i%len(windows)], p)
			}
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			g := poa.New()
			for i := 0; i < b.N; i++ {
				poa.ConsensusInto(windows[i%len(windows)], p, g)
			}
		},
	}
}

// poaLanesPair measures the int16 lane-batched partial-order DP (CSR
// snapshot + SWAR match masks, 8 columns per step) against the scalar
// per-cell sweep. Both sides run the full consensus over a pooled
// graph so the pair isolates the alignment core, the windows mirroring
// Racon's geometry (a few hundred bases, a handful of noisy reads).
func poaLanesPair() pairSpec {
	rng := rand.New(rand.NewSource(45))
	windows := make([]*poa.Window, 8)
	for i := range windows {
		base := genome.Random(rng, 100+rng.Intn(200))
		w := &poa.Window{}
		for s := 0; s < 4+rng.Intn(4); s++ {
			seq := base.Clone()
			for k := 0; k < len(seq)/15+1; k++ {
				seq[rng.Intn(len(seq))] = genome.Base(rng.Intn(4))
			}
			w.Sequences = append(w.Sequences, seq)
		}
		windows[i] = w
	}
	p := poa.DefaultParams()
	return pairSpec{
		kernel: "poa", pair: "lanes",
		baselineName: "poa/lanes/scalar", optimizedName: "poa/lanes/lane8",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			g := poa.New()
			for i := 0; i < b.N; i++ {
				poa.ConsensusScalarInto(windows[i%len(windows)], p, g)
			}
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			g := poa.New()
			for i := 0; i < b.N; i++ {
				poa.ConsensusInto(windows[i%len(windows)], p, g)
			}
		},
	}
}

func abeaPair() pairSpec {
	rng := rand.New(rand.NewSource(53))
	model := signalsim.NewPoreModel()
	seq := genome.Random(rng, 150)
	events := signalsim.Simulate(rng, model, seq, signalsim.DefaultConfig())
	cfg := abea.DefaultConfig()
	return pairSpec{
		kernel: "abea", pair: "align",
		baselineName: "abea/align/alloc", optimizedName: "abea/align/pooled",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				abea.AlignInto(model, seq, events, cfg, nil)
			}
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			arena := scratch.New()
			for i := 0; i < b.N; i++ {
				abea.AlignInto(model, seq, events, cfg, arena)
			}
		},
	}
}

// abeaLanesPair measures the lane-blocked band sweep (hoisted
// emission tables, quad cell blocks) against the scalar per-cell
// reference on nanopore-realistic read lengths.
func abeaLanesPair() pairSpec {
	rng := rand.New(rand.NewSource(54))
	model := signalsim.NewPoreModel()
	type rd struct {
		seq    genome.Seq
		events []signalsim.Event
	}
	reads := make([]rd, 6)
	for i := range reads {
		seq := genome.Random(rng, 800+rng.Intn(1200))
		reads[i] = rd{seq: seq, events: signalsim.Simulate(rng, model, seq, signalsim.DefaultConfig())}
	}
	cfg := abea.DefaultConfig()
	return pairSpec{
		kernel: "abea", pair: "lanes",
		baselineName: "abea/lanes/scalar", optimizedName: "abea/lanes/quad",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			arena := scratch.New()
			for i := 0; i < b.N; i++ {
				r := reads[i%len(reads)]
				abea.AlignInto(model, r.seq, r.events, cfg, arena)
			}
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			arena := scratch.New()
			for i := 0; i < b.N; i++ {
				r := reads[i%len(reads)]
				abea.AlignLanesInto(model, r.seq, r.events, cfg, arena)
			}
		},
	}
}

func dbgPair() pairSpec {
	rng := rand.New(rand.NewSource(63))
	regions := make([]*dbg.Region, 8)
	for i := range regions {
		ref := genome.Random(rng, 80+rng.Intn(200))
		rg := &dbg.Region{Ref: ref}
		for r := 0; r < 5+rng.Intn(10); r++ {
			lo := rng.Intn(len(ref) / 2)
			hi := lo + 30 + rng.Intn(len(ref)-lo-30)
			read := ref[lo:hi].Clone()
			for m := 0; m < len(read)/25+1; m++ {
				read[rng.Intn(len(read))] = genome.Base(rng.Intn(4))
			}
			rg.Reads = append(rg.Reads, read)
		}
		regions[i] = rg
	}
	cfg := dbg.DefaultConfig()
	return pairSpec{
		kernel: "dbg", pair: "assemble",
		baselineName: "dbg/assemble/fresh", optimizedName: "dbg/assemble/pooled",
		baseline: func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dbg.AssembleRegion(regions[i%len(regions)], cfg)
			}
		},
		optimized: func(b *testing.B) {
			b.ReportAllocs()
			a := dbg.NewAssembler()
			for i := 0; i < b.N; i++ {
				a.AssembleRegion(regions[i%len(regions)], cfg)
			}
		},
	}
}
