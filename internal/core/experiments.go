package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/abea"
	"repro/internal/bsw"
	"repro/internal/cachesim"
	"repro/internal/genome"
	"repro/internal/nnbase"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/signalsim"
	"repro/internal/simt"
)

// This file regenerates the paper's evaluation tables and figures.
// Each generator returns a Table whose rows correspond to the paper's
// rows/series; EXPERIMENTS.md records paper-vs-measured values.

// memo computes each key's value once, under a lock held across the
// computation: a second caller wanting the same value waits for it
// instead of repeating it.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
}

func (c *memo[K, V]) get(key K, compute func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if !ok {
		if c.m == nil {
			c.m = map[K]V{}
		}
		v = compute()
		c.m[key] = v
	}
	return v
}

type runKey struct {
	kernel string
	size   Size
	seed   int64
}

// Table III, Figs. 4 and 5, the memory profiles and the cache sweep
// all read the same single-thread pass, and Figs. 6 to 9 the same
// replay of it, so a process that renders several of them (gbench-
// tables, gbench-report) runs each kernel and each replay once.
var (
	runMemo     memo[runKey, RunStats]
	profileMemo memo[int64, []MemProfile]
)

// runOnce returns the kernel's RunStats from a single-thread run of
// its (size, seed) dataset, which every field but Elapsed is a pure
// function of. Callers read the result and must not modify it.
func runOnce(k kernel, size Size, seed int64) RunStats {
	return runMemo.get(runKey{k.info.Name, size, seed}, func() RunStats {
		b := k.newBench()
		b.Prepare(size, seed)
		return mustRun(b, 1)
	})
}

// TableI renders the baseline machine configuration the cache
// simulator models (the paper's Xeon E3-1240 v5).
func TableI() *Table {
	cfg := cachesim.XeonE31240v5()
	t := &Table{
		Title:   "Table I: Baseline system configuration (simulated)",
		Columns: []string{"component", "value"},
	}
	t.AddRow("CPU", "Intel Xeon E3-1240 v5, 3.5 GHz, AVX2, 1 socket, 8 threads (modelled)")
	t.AddRow("L1D cache", fmt.Sprintf("%d KB, %d-way, %d B lines", cfg.L1Size>>10, cfg.L1Ways, cfg.LineSize))
	t.AddRow("L2 cache", fmt.Sprintf("%d KB, %d-way", cfg.L2Size>>10, cfg.L2Ways))
	t.AddRow("LLC", fmt.Sprintf("%d MB, %d-way", cfg.LLCSize>>20, cfg.LLCWays))
	t.AddRow("Memory bandwidth", "31.79 GB/s (scaling model)")
	t.AddRow("GPU (Tables IV/V)", "Nvidia Titan Xp, 30 SMs, 12 GB (SIMT model)")
	return t
}

// TableII renders the benchmark overview with parallelism motifs.
func TableII() *Table {
	t := &Table{
		Title:   "Table II: Benchmark overview and parallelism motifs",
		Columns: []string{"benchmark", "tool", "pipeline", "motif", "compute"},
	}
	for _, k := range kernels {
		info := k.info
		compute := "regular"
		if info.Irregular {
			compute = "irregular"
		}
		t.AddRow(info.Name, info.Tool, info.Pipeline, info.Motif, compute)
	}
	return t
}

// TableIII renders the parallelism granularity of the irregular
// kernels together with measured per-task work.
func TableIII(size Size, seed int64) *Table {
	t := &Table{
		Title:   "Table III: Parallelism granularity and data-parallel computation (irregular kernels)",
		Columns: []string{"benchmark", "granularity", "work unit", "tasks", "mean work/task"},
	}
	for _, k := range kernels {
		info := k.info
		if !info.Irregular {
			continue
		}
		stats := runOnce(k, size, seed)
		s := stats.TaskStats.Summarize()
		t.AddRow(info.Name, info.Granularity, info.WorkUnit, s.Count, s.Mean)
	}
	return t
}

// GPUStats bundles one GPU kernel's SIMT metrics.
type GPUStats struct {
	Name      string
	Metrics   *simt.Metrics
	Occupancy float64
	SMUtil    float64
}

// RunGPUKernels executes the SIMT models of abea and nn-base.
func RunGPUKernels(seed int64) []GPUStats {
	dev := simt.TitanXp()
	rng := rand.New(rand.NewSource(seed))

	pore := signalsim.NewPoreModel()
	src := genome.NewReference(rng, "chr", 30_000, 0.1)
	reads := signalsim.SimulateReads(rng, pore, src.Seq, 3, 200, 500, signalsim.DefaultConfig())
	am, alaunch := abea.RunGPU(pore, reads, abea.DefaultConfig(), dev)
	aOcc := dev.Occupancy(alaunch)

	ncfg := nnbase.DefaultConfig()
	nmodel := nnbase.NewModel(seed, ncfg)
	nm, nlaunch := nnbase.RunGPU(nmodel, ncfg, 4, dev)
	nOcc := dev.Occupancy(nlaunch)

	return []GPUStats{
		{Name: "abea", Metrics: am, Occupancy: aOcc, SMUtil: am.SMUtilization(dev, aOcc)},
		{Name: "nn-base", Metrics: nm, Occupancy: nOcc, SMUtil: nm.SMUtilization(dev, nOcc)},
	}
}

// TableIV renders GPU control-flow and compute regularity.
func TableIV(seed int64) *Table {
	t := &Table{
		Title:   "Table IV: GPU kernel control flow and compute regularity",
		Columns: []string{"metric", "abea", "nn-base"},
	}
	gs := RunGPUKernels(seed)
	a, n := gs[0], gs[1]
	pct := func(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
	t.AddRow("Branch efficiency", pct(a.Metrics.BranchEfficiency()), pct(n.Metrics.BranchEfficiency()))
	t.AddRow("Warp efficiency", pct(a.Metrics.WarpEfficiency()), pct(n.Metrics.WarpEfficiency()))
	t.AddRow("Non-predicated warp efficiency", pct(a.Metrics.NonPredicatedWarpEfficiency()), pct(n.Metrics.NonPredicatedWarpEfficiency()))
	t.AddRow("SM utilization", pct(a.SMUtil), pct(n.SMUtil))
	t.AddRow("Occupancy", pct(a.Occupancy), pct(n.Occupancy))
	t.Notes = append(t.Notes, "paper: branch 100/100, warp 75.09/100, non-pred 70.18/94.43, SM 70.53/99.83, occ 31.41/88.47")
	return t
}

// TableV renders GPU global memory efficiency.
func TableV(seed int64) *Table {
	t := &Table{
		Title:   "Table V: Useful proportion of GPU global memory bandwidth",
		Columns: []string{"metric", "abea", "nn-base"},
	}
	gs := RunGPUKernels(seed)
	a, n := gs[0], gs[1]
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
	t.AddRow("Global load efficiency", pct(a.Metrics.GlobalLoadEfficiency()), pct(n.Metrics.GlobalLoadEfficiency()))
	t.AddRow("Global store efficiency", pct(a.Metrics.GlobalStoreEfficiency()), pct(n.Metrics.GlobalStoreEfficiency()))
	t.Notes = append(t.Notes, "paper: load 25.5/70.3, store 68.5/100")
	return t
}

// VectorWaste reproduces the Section IV-B observation that the
// inter-sequence vectorized bsw performs ~2.2x more cell updates than
// the scalar version.
func VectorWaste(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	ref := genome.NewReference(rng, "chr", 100_000, 0.1)
	// Seed-extension workload: seeds matched exactly, but most
	// extensions run into divergent sequence (repeat edges, chimeric
	// candidates) at some breakpoint and z-drop there. Sorting by
	// length (as BWA-MEM2 does) cannot equalize *content*, which is
	// exactly the paper's point.
	var pairs []bsw.Pair
	for i := 0; i < 512; i++ {
		qLen := 150 + rng.Intn(60)
		start := rng.Intn(len(ref.Seq) - qLen - 60)
		q := ref.Seq[start : start+qLen].Clone()
		tg := ref.Seq[start : start+qLen+40].Clone()
		if rng.Float64() < 0.9 {
			// Divergence from a breakpoint onward; homology usually
			// ends close to the seed, so breakpoints skew early.
			u := rng.Float64()
			bp := int(u * u * float64(qLen))
			copy(tg[bp:], genome.Random(rng, len(tg)-bp))
		} else {
			for m := 0; m < qLen/30; m++ {
				tg[rng.Intn(len(tg))] = genome.Base(rng.Intn(4))
			}
		}
		pairs = append(pairs, bsw.Pair{Query: q, Target: tg})
	}
	// Sort by query length, as BWA-MEM2 does before lane assignment.
	sort.SliceStable(pairs, func(i, j int) bool { return len(pairs[i].Query) < len(pairs[j].Query) })
	p := bsw.DefaultParams()
	p.Band = 40
	p.ZDrop = 30
	_, stats := bsw.AlignBatch(pairs, p, 16)
	t := &Table{
		Title:   "Section IV-B: inter-sequence vectorization overhead (bsw)",
		Columns: []string{"metric", "value"},
	}
	t.AddRow("scalar cell updates", stats.UsefulCells)
	t.AddRow("16-lane issued cell slots", stats.IssuedCells)
	t.AddRow("overhead (issued/useful)", fmt.Sprintf("%.2fx", stats.Overhead()))
	t.Notes = append(t.Notes, "paper: AVX2 16-bit inter-sequence bsw performs 2.2x more cell updates than scalar")
	return t
}

// Fig4 renders per-task work imbalance for the irregular kernels.
func Fig4(size Size, seed int64) *Table {
	t := &Table{
		Title:   "Figure 4: per-task data-parallel work distribution (irregular kernels)",
		Columns: []string{"benchmark", "unit", "tasks", "mean", "max", "max/mean", "p99/mean", "cv", "distribution"},
	}
	for _, k := range kernels {
		info := k.info
		if !info.Irregular {
			continue
		}
		stats := runOnce(k, size, seed)
		s := stats.TaskStats.Summarize()
		p99Rel := 0.0
		if s.Mean > 0 {
			p99Rel = s.P99 / s.Mean
		}
		t.AddRow(info.Name, stats.TaskStats.Unit, s.Count, s.Mean, s.Max,
			fmt.Sprintf("%.1fx", s.MaxToMean), fmt.Sprintf("%.1fx", p99Rel),
			fmt.Sprintf("%.2f", s.CoeffOfVariation),
			stats.TaskStats.Sparkline(16))
	}
	t.Notes = append(t.Notes, "paper: max/mean ratios range 4.1x-8.3x across kernels; phmm regions reach ~1000x")
	return t
}

// Fig5 renders the dynamic instruction mix per kernel.
func Fig5(size Size, seed int64) *Table {
	t := &Table{
		Title:   "Figure 5: dynamic operation breakdown (%)",
		Columns: []string{"benchmark", "int-alu", "float", "vector", "load", "store", "branch", "other"},
	}
	for _, k := range kernels {
		info := k.info
		if info.Name == "grm" {
			// The paper excludes grm from the MICA instruction mix.
			continue
		}
		stats := runOnce(k, size, seed)
		fr := stats.Counters.Fractions()
		row := []interface{}{info.Name}
		for i := 0; i < perf.NumOpClasses(); i++ {
			row = append(row, fmt.Sprintf("%.1f", 100*fr[i]))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper: phmm is the only FP-heavy CPU kernel; bsw/phmm/spoa have large vector shares; fmi is load-dominated")
	return t
}

// MemProfile is one kernel's simulated memory behaviour.
type MemProfile struct {
	Name    string
	Report  cachesim.Report
	TopDown cachesim.TopDown
}

// MemoryProfiles runs every kernel small, then replays its
// characteristic address stream (scaled to the paper's working-set
// sizes: 10 GB FM-index, 8 GB k-mer table, ...) through the cache
// simulator. Returns profiles in suite order.
func MemoryProfiles(seed int64) []MemProfile {
	return profileMemo.get(seed, func() []MemProfile { return memoryProfiles(seed) })
}

func memoryProfiles(seed int64) []MemProfile {
	var out []MemProfile
	for _, k := range kernels {
		info := k.info
		stats := runOnce(k, Small, seed)
		h := cachesim.NewHierarchy(cachesim.XeonE31240v5())
		fraction := replayTrace(info.Name, stats, h, seed)
		// The replay may be truncated for speed; scale the instruction
		// denominator by the replayed fraction of the kernel's work so
		// BPKI and stall estimates stay consistent.
		instr := uint64(float64(stats.Counters.Total()) * fraction)
		fr := stats.Counters.Fractions()
		rep := h.Report(instr)
		// Regular dense kernels (grm, nn-*) keep their vector ports
		// saturated and retire continuously; only irregular kernels'
		// vector/FP work stalls on dependences and contends for ports.
		vecFloat := fr[perf.VecOp] + fr[perf.FloatOp]
		if !info.Irregular {
			vecFloat *= 0.25
		}
		td := h.TopDownEstimate(instr, fr[perf.Branch], vecFloat)
		out = append(out, MemProfile{Name: info.Name, Report: rep, TopDown: td})
	}
	return out
}

// replayTrace feeds kernel-characteristic address streams into the
// cache hierarchy and returns the fraction of the kernel's work units
// replayed. Counts come from the instrumented run; table sizes come
// from the paper's datasets (the substitution DESIGN.md records: our
// synthetic genomes are small, so replaying at paper-scale sizes
// preserves the locality the paper measured).
func replayTrace(name string, stats RunStats, h *cachesim.Hierarchy, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	x := stats.Extra
	// Cap replay length to keep table generation fast; miss ratios
	// converge long before this.
	const maxUnits = 600_000
	scale := func(n float64) (int, float64) {
		if n <= 0 {
			return 0, 1
		}
		if n > maxUnits {
			return maxUnits, maxUnits / n
		}
		return int(n), 1
	}
	// warm touches a resident region once and clears the compulsory
	// misses from the statistics, so truncated replays report the
	// steady state rather than cold-start traffic.
	warm := func(base, bytes uint64) {
		for off := uint64(0); off < bytes; off += 64 {
			h.Access(base+off, 64, false)
		}
		h.ResetStats()
	}
	switch name {
	case "fmi":
		// Occ lookups over a 10 GB index. Backward-search intervals
		// drift slowly and popular seeds repeat across reads, giving
		// strong reuse; the cold lookups land anywhere in the index
		// (the paper: >80% of Occ misses open a new DRAM page).
		const table = 10 << 30
		const hot = 256 << 10
		n, f := scale(x["occ_lookups"])
		warm(0, hot)
		for i := 0; i < n; i++ {
			var addr uint64
			if rng.Float64() < 0.992 {
				addr = rng.Uint64() % hot
			} else {
				addr = rng.Uint64() % table
			}
			h.Access(addr&^63, 64, false) // full cache block consumed
		}
		return f
	case "kmer-cnt":
		// Hash inserts over an 8 GB table; the skewed k-mer spectrum
		// gives reuse on hot entries, but a cold fraction touches a
		// random line and dirties 1-2 bytes of it.
		const table = 8 << 30
		const hot = 3 << 20
		n, f := scale(x["kmers"])
		warm(0, hot)
		for i := 0; i < n; i++ {
			var addr uint64
			if rng.Float64() < 0.94 {
				addr = rng.Uint64() % hot
			} else {
				addr = rng.Uint64() % table
			}
			h.Access(addr, 8, false)
			h.Access(addr, 2, true) // tiny counter update per line
		}
		return f
	case "bsw":
		// Banded DP rows: small resident buffers plus streamed
		// sequence pairs.
		cells, f := scale(x["cells"])
		row := uint64(256 * 4)
		warm(0, 4<<20)
		for i := 0; i < cells; i++ {
			j := uint64(i) % row
			h.Access(j*4, 4, false)
			h.Access(1<<20+j*4, 4, false)
			h.Access(2<<20+j*4, 4, true)
			if i%16 == 0 {
				h.Access(8<<20+uint64(i/16), 1, false) // sequence bytes
			}
		}
		return f
	case "phmm":
		// Everything is resident: short reads, haplotypes and three
		// float rows per pair all fit in L1/L2 and are reused across
		// the |R| x |H| pair matrix — the paper's 0.02 BPKI.
		cells, f := scale(x["cells"])
		row := uint64(256 * 4)
		warm(0, 64<<10)
		for i := 0; i < cells; i++ {
			j := uint64(i) % row
			h.Access(j*4, 4, false)
			h.Access(8<<10+j*4, 4, false)
			h.Access(16<<10+j*4, 4, true)
		}
		return f
	case "chain":
		// Anchor array streamed once with a 25-back sliding window that
		// stays cache-resident.
		comps, f := scale(x["comparisons"])
		for i := 0; i < comps; i++ {
			pos := uint64(i / 25)
			back := uint64(rng.Intn(25))
			h.Access(pos*16, 16, false)
			h.Access((pos-back)*16, 16, false)
		}
		return f
	case "spoa":
		// Graph nodes revisited per row and a per-window score buffer
		// that is reused across alignments (LLC-resident) with modest
		// fresh-sequence streaming.
		cells, f := scale(x["cells"])
		const graph = 32 << 10
		const matrix = 1536 << 10
		warm(0, graph)
		warm(1<<30, matrix)
		for i := 0; i < cells; i++ {
			h.Access(rng.Uint64()%graph, 16, false)
			h.Access(1<<30+uint64(i*4)%matrix, 4, true)
			h.Access(1<<30+uint64(i*4+2048)%matrix, 4, false)
			if i%24 == 0 {
				h.Access(1<<33+uint64(i/24), 1, false) // window sequences
			}
		}
		return f
	case "dbg":
		// Per-region hash tables of tens of KB; the allocator reuses
		// the arena across regions so the table stays cache-warm, with
		// the aligned reads streamed in once.
		lookups, f := scale(x["hash_lookups"])
		const regionTable = 96 << 10
		warm(0, regionTable)
		for i := 0; i < lookups; i++ {
			h.Access(rng.Uint64()%regionTable, 16, rng.Intn(2) == 0)
			if i%64 == 0 {
				h.Access(1<<33+uint64(i/64)*64, 64, false) // read bases stream
			}
		}
		return f
	case "abea":
		// Bands are L1-resident; the pore-model table (32 KB) is hit
		// randomly; raw events stream slowly (one event row feeds a
		// whole band of cells).
		cells, f := scale(x["cells"])
		const model = 32 << 10
		warm(0, model)
		warm(1<<20, 8<<10)
		for i := 0; i < cells; i++ {
			h.Access(rng.Uint64()%model, 8, false)
			h.Access(1<<20+uint64(i%1600)*4, 4, true)
			if i%12 == 0 {
				h.Access(1<<34+uint64(i/12), 1, false) // event stream
			}
		}
		return f
	case "pileup":
		// Random hops between alignment records (hundreds of MB of
		// aligned data) plus counter updates over the region array.
		depth, f := scale(x["depth"])
		const records = 512 << 20
		const counters = 5 << 20
		warm(1<<35, counters)
		recBase := rng.Uint64() % records
		for i := 0; i < depth; i++ {
			if i%256 == 0 {
				recBase = rng.Uint64() % records // next alignment record
			}
			h.Access(recBase+uint64(i%256), 1, false)
			h.Access(1<<35+uint64(i*48)%counters, 8, true)
		}
		return f
	case "grm":
		// Blocked matrix multiply: tile-resident rows with a slow
		// stream of fresh panel data (one line per ~2K FMAs with
		// two-level blocking).
		flops, f := scale(x["flops"])
		const matrix = 200 << 20
		warm(0, 192<<10)
		for i := 0; i < flops; i++ {
			h.Access(uint64(i*8)%(192<<10), 8, false) // L2-resident tile
			if i%2048 == 0 {
				// Fresh panel lines arrive as a sequential stream the
				// prefetcher covers.
				h.Access(1<<31+uint64(i/2048)*64%matrix, 64, false)
			}
		}
		return f
	case "nn-base", "nn-variant":
		// Weights re-streamed per chunk/call: a few MB, LLC-resident.
		macs, f := scale(x["macs"])
		const weights = 6 << 20
		const activations = 1 << 20 // layer outputs reused by the next layer
		warm(0, weights)
		warm(1<<30, activations)
		for i := 0; i < macs; i++ {
			h.Access(uint64(i*4)%weights, 4, false)
			if i%32 == 0 {
				h.Access(1<<30+uint64(i/32)*4%activations, 4, true)
			}
		}
		return f
	}
	return 1
}

// Fig6 renders off-chip data requirements in BPKI.
func Fig6(seed int64) *Table {
	t := &Table{
		Title:   "Figure 6: off-chip data requirements (DRAM bytes per kilo-instruction)",
		Columns: []string{"benchmark", "BPKI"},
	}
	for _, p := range MemoryProfiles(seed) {
		t.AddRow(p.Name, fmt.Sprintf("%.2f", p.Report.BPKI))
	}
	t.Notes = append(t.Notes, "paper: kmer-cnt 484.1, fmi 66.8, spoa 6.62, phmm 0.02")
	return t
}

// Fig8 renders cache miss ratios and data-stall fractions.
func Fig8(seed int64) *Table {
	t := &Table{
		Title:   "Figure 8: cache miss ratios and cycles stalled on data",
		Columns: []string{"benchmark", "L1 miss", "L2 miss", "LLC miss", "stall cycles"},
	}
	for _, p := range MemoryProfiles(seed) {
		t.AddRow(p.Name,
			fmt.Sprintf("%.1f%%", 100*p.Report.L1MissRatio),
			fmt.Sprintf("%.1f%%", 100*p.Report.L2MissRatio),
			fmt.Sprintf("%.1f%%", 100*p.Report.LLCMissRatio),
			fmt.Sprintf("%.1f%%", 100*p.Report.StallFraction))
	}
	t.Notes = append(t.Notes, "paper: fmi 41.5% and kmer-cnt 69.2% of cycles stalled; others < 20%")
	return t
}

// Fig9 renders the top-down pipeline-slot breakdown.
func Fig9(seed int64) *Table {
	t := &Table{
		Title:   "Figure 9: top-down bottleneck analysis (% pipeline slots)",
		Columns: []string{"benchmark", "retiring", "bad-spec", "frontend", "backend-mem", "backend-core"},
	}
	for _, p := range MemoryProfiles(seed) {
		td := p.TopDown
		t.AddRow(p.Name,
			fmt.Sprintf("%.1f", 100*td.Retiring),
			fmt.Sprintf("%.1f", 100*td.BadSpeculation),
			fmt.Sprintf("%.1f", 100*td.FrontendBound),
			fmt.Sprintf("%.1f", 100*td.BackendMemory),
			fmt.Sprintf("%.1f", 100*td.BackendCore))
	}
	t.Notes = append(t.Notes,
		"paper: fmi 44.4% and kmer-cnt 86.6% backend-memory; bsw/chain/phmm >50% retiring; grm 87.7% retiring")
	return t
}

// ScalingProfile is one kernel's thread-scaling curve.
type ScalingProfile struct {
	Name     string
	Measured []parallel.ScalingPoint
	Modeled  []float64 // speedups from the Amdahl + bandwidth model
}

// Fig7 measures thread scaling for every kernel (real goroutines; the
// shape depends on host core count) and adds a model curve calibrated
// to the paper's 8-thread Xeon: Amdahl's law with per-kernel
// memory-bandwidth caps derived from the cache simulation.
func Fig7(size Size, seed int64, threadCounts []int) (*Table, []ScalingProfile) {
	profiles := make([]ScalingProfile, 0, len(kernels))
	mem := MemoryProfiles(seed) // in suite order, as kernels is
	for ki, k := range kernels {
		b := k.newBench()
		b.Prepare(size, seed)
		mustRun(b, 1) // warm caches and allocator before timing
		measured := parallel.MeasureScaling(threadCounts, func(threads int) {
			mustRun(b, threads)
		})
		// Model: Amdahl's law capped by a bandwidth roofline. The cap
		// is driven by DRAM traffic volume (BPKI): latency-bound
		// kernels (fmi) keep scaling because extra threads add memory-
		// level parallelism, while bandwidth-bound ones (kmer-cnt)
		// saturate the random-access bandwidth budget.
		bpki := mem[ki].Report.BPKI
		modeled := make([]float64, len(threadCounts))
		for i, tc := range threadCounts {
			s := amdahl(float64(tc), 0.995)
			if bpki > 60 {
				s = min(s, max(1, 8*math.Sqrt(60/bpki)))
			}
			modeled[i] = s
		}
		profiles = append(profiles, ScalingProfile{Name: k.info.Name, Measured: measured, Modeled: modeled})
	}
	t := &Table{
		Title:   "Figure 7: thread scaling (speedup over 1 thread)",
		Columns: []string{"benchmark"},
	}
	for _, tc := range threadCounts {
		t.Columns = append(t.Columns, fmt.Sprintf("t=%d meas", tc))
	}
	for _, tc := range threadCounts {
		t.Columns = append(t.Columns, fmt.Sprintf("t=%d model", tc))
	}
	for _, p := range profiles {
		row := []interface{}{p.Name}
		for _, m := range p.Measured {
			row = append(row, fmt.Sprintf("%.2f", m.Speedup))
		}
		for _, m := range p.Modeled {
			row = append(row, fmt.Sprintf("%.2f", m))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"measured on this host (GOMAXPROCS-limited); model calibrated to the paper's 8-thread Xeon",
		"paper: bsw/dbg/phmm/spoa scale perfectly; fmi/chain near-perfect; kmer-cnt saturates bandwidth")
	return t, profiles
}

func amdahl(t, p float64) float64 {
	return 1 / ((1 - p) + p/t)
}

// Artefact is one table or figure this reproduction regenerates.
type Artefact struct {
	ID    string // gbench-tables' -t value
	Paper bool   // one of the paper's own tables and figures
	Gen   func(size Size, seed int64) *Table
}

// Artefacts lists every table and figure, the paper's twelve in the
// paper's order and then this repository's ablations. It is the one
// list: gbench-tables walks it and AllTables is its paper subset.
var Artefacts = []Artefact{
	{"config", true, func(Size, int64) *Table { return TableI() }},
	{"overview", true, func(Size, int64) *Table { return TableII() }},
	{"granularity", true, TableIII},
	{"gpu-control", true, func(_ Size, seed int64) *Table { return TableIV(seed) }},
	{"gpu-memory", true, func(_ Size, seed int64) *Table { return TableV(seed) }},
	{"vector-waste", true, func(_ Size, seed int64) *Table { return VectorWaste(seed) }},
	{"imbalance", true, Fig4},
	{"instmix", true, Fig5},
	{"bpki", true, func(_ Size, seed int64) *Table { return Fig6(seed) }},
	{"scaling", true, func(size Size, seed int64) *Table {
		t, _ := Fig7(size, seed, []int{1, 2, 4, 8})
		return t
	}},
	{"cache", true, func(_ Size, seed int64) *Table { return Fig8(seed) }},
	{"topdown", true, func(_ Size, seed int64) *Table { return Fig9(seed) }},
	{"cache-sweep", false, func(_ Size, seed int64) *Table { return CacheSweepTable(seed) }},
}

// AllTables regenerates the paper's tables and figures in order.
func AllTables(size Size, seed int64) []*Table {
	var out []*Table
	for _, a := range Artefacts {
		if a.Paper {
			out = append(out, a.Gen(size, seed))
		}
	}
	return out
}
