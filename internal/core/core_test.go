package core

import (
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/shard"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"fmi", "bsw", "dbg", "phmm", "chain", "spoa", "abea",
		"grm", "nn-base", "pileup", "nn-variant", "kmer-cnt"}
	names := Names()
	if len(names) != 12 {
		t.Fatalf("registry has %d kernels, want 12: %v", len(names), names)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("kernel %q missing from registry", w)
		}
	}
}

// TestKernelTable: the table is the paper's Table II — twelve kernels
// in its order, its GPU and compute-regularity columns — and a
// shardable entry's task count is the count the same entry's build
// makes, which is what lets the coordinator partition without a
// dataset.
func TestKernelTable(t *testing.T) {
	type row struct {
		name                      string
		irregular, gpu, shardable bool
	}
	want := []row{
		{"fmi", true, false, false},
		{"bsw", true, false, true},
		{"dbg", true, false, true},
		{"phmm", true, false, true},
		{"chain", true, false, true},
		{"spoa", true, false, true},
		{"abea", true, true, false},
		{"grm", false, false, false},
		{"nn-base", false, true, false},
		{"pileup", true, false, true},
		{"nn-variant", false, true, false},
		{"kmer-cnt", false, false, false},
	}
	if len(kernels) != len(want) {
		t.Fatalf("table has %d kernels, want %d: %v", len(kernels), len(want), Names())
	}
	for i, k := range kernels {
		got := row{k.info.Name, k.info.Irregular, k.info.GPU, k.tasks != nil}
		if got != want[i] {
			t.Errorf("entry %d is %+v, want %+v", i, got, want[i])
		}
		ex, err := shard.NewExecutor(got.name)
		if registered := err == nil; got.shardable != registered || (k.newExecutor != nil) != registered {
			t.Errorf("%s: shardable in the table %v, registered with the fabric %v", got.name, got.shardable, registered)
		}
		if !got.shardable {
			continue
		}
		n := k.tasks(Small)
		if built, err := ex.Prepare("small", 3); err != nil || built != n {
			t.Errorf("%s: tasks(Small) = %d, Prepare built %d (%v)", got.name, n, built, err)
		}
	}
}

// TestBenchmarksAreIndependentInstances: every Benchmarks/ByName call
// hands out its own instance, so two holders of one kernel each run
// the dataset they prepared, and releasing one leaves the other's.
func TestBenchmarksAreIndependentInstances(t *testing.T) {
	bswAt := func(seed int64) (Benchmark, RunStats) {
		b, err := ByName("bsw")
		if err != nil {
			t.Fatal(err)
		}
		b.Prepare(Small, seed)
		return b, mustRun(b, 1)
	}
	a, wantA := bswAt(1)
	b, wantB := bswAt(2)
	if wantA.Counters == wantB.Counters {
		t.Fatal("seeds 1 and 2 count the same work; the test cannot tell the instances apart")
	}
	same := func(who string, got, want RunStats) {
		t.Helper()
		if got.Counters != want.Counters || !maps.Equal(got.Extra, want.Extra) {
			t.Errorf("%s ran another dataset: %v %v, its own seed gives %v %v",
				who, got.Counters.Ops, got.Extra, want.Counters.Ops, want.Extra)
		}
	}
	for i := 0; i < 2; i++ {
		same("a (seed 1)", mustRun(a, 2), wantA)
		same("b (seed 2)", mustRun(b, 2), wantB)
	}
	a.Release()
	same("b after a.Release", mustRun(b, 1), wantB)
}

// TestRunOnceSharesOnePass: the figure generators' single-thread pass
// is run once per (kernel, size, seed) however many callers want it,
// at once or in turn.
func TestRunOnceSharesOnePass(t *testing.T) {
	k, ok := lookup("chain")
	if !ok {
		t.Fatal("no chain entry")
	}
	got := make([]RunStats, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = runOnce(k, Small, 5)
		}()
	}
	wg.Wait()
	for i, st := range got {
		if st.TaskStats == nil || st.TaskStats != got[0].TaskStats {
			t.Errorf("caller %d got a pass of its own", i)
		}
	}
	if other := runOnce(k, Small, 6); other.TaskStats == got[0].TaskStats {
		t.Error("seed 6 was served seed 5's pass")
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("fmi")
	if err != nil || b.Info().Name != "fmi" {
		t.Fatalf("ByName(fmi) = %v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

func TestParseSize(t *testing.T) {
	if s, err := ParseSize("small"); err != nil || s != Small {
		t.Error("ParseSize(small) failed")
	}
	if s, err := ParseSize("large"); err != nil || s != Large {
		t.Error("ParseSize(large) failed")
	}
	if _, err := ParseSize("huge"); err == nil {
		t.Error("ParseSize(huge) should fail")
	}
	if Small.String() != "small" || Large.String() != "large" {
		t.Error("Size.String wrong")
	}
}

func TestEveryBenchmarkRunsTiny(t *testing.T) {
	for _, b := range Benchmarks() {
		info := b.Info()
		b.Prepare(Small, 7)
		stats := mustRun(b, 2)
		if stats.Counters.Total() == 0 {
			t.Errorf("%s: no operations counted", info.Name)
		}
		if stats.TaskStats == nil || stats.TaskStats.Count() == 0 {
			t.Errorf("%s: no task stats", info.Name)
		}
		if stats.Elapsed <= 0 {
			t.Errorf("%s: no elapsed time", info.Name)
		}
		if len(stats.Extra) == 0 {
			t.Errorf("%s: no extra metrics", info.Name)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow("x", 1.5)
	tab.AddRow("longer", 1e9)
	tab.Notes = append(tab.Notes, "a note")
	s := tab.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "longer") ||
		!strings.Contains(s, "note: a note") {
		t.Errorf("rendered table missing pieces:\n%s", s)
	}
}

func TestStaticTables(t *testing.T) {
	t1 := TableI()
	if len(t1.Rows) < 5 {
		t.Error("Table I too short")
	}
	t2 := TableII()
	if len(t2.Rows) != 12 {
		t.Errorf("Table II has %d rows, want 12", len(t2.Rows))
	}
}

func TestGPUTablesMatchPaperShape(t *testing.T) {
	gs := RunGPUKernels(7)
	if len(gs) != 2 {
		t.Fatal("want two GPU kernels")
	}
	a, n := gs[0], gs[1]
	if a.Name != "abea" || n.Name != "nn-base" {
		t.Fatal("unexpected kernel order")
	}
	// Paper Table IV orderings.
	if a.Metrics.WarpEfficiency() >= n.Metrics.WarpEfficiency() {
		t.Error("abea warp efficiency should be below nn-base")
	}
	if a.Occupancy >= n.Occupancy {
		t.Error("abea occupancy should be below nn-base")
	}
	if a.SMUtil >= n.SMUtil {
		t.Error("abea SM utilization should be below nn-base")
	}
	// Paper Table V orderings.
	if a.Metrics.GlobalLoadEfficiency() >= n.Metrics.GlobalLoadEfficiency() {
		t.Error("abea load efficiency should be below nn-base")
	}
	if n.Metrics.GlobalStoreEfficiency() != 1 {
		t.Error("nn-base store efficiency should be 1")
	}
}

func TestMemoryProfilesShape(t *testing.T) {
	profiles := MemoryProfiles(7)
	if len(profiles) != 12 {
		t.Fatalf("got %d profiles", len(profiles))
	}
	byName := map[string]MemProfile{}
	for _, p := range profiles {
		byName[p.Name] = p
	}
	// The paper's headline memory results: kmer-cnt and fmi dominate
	// BPKI and stall fraction; phmm is essentially traffic-free.
	if byName["kmer-cnt"].Report.BPKI <= byName["fmi"].Report.BPKI {
		t.Error("kmer-cnt BPKI should exceed fmi")
	}
	for _, other := range []string{"bsw", "phmm", "chain", "spoa", "abea", "grm"} {
		if byName[other].Report.BPKI >= byName["fmi"].Report.BPKI {
			t.Errorf("%s BPKI %.1f should be below fmi %.1f",
				other, byName[other].Report.BPKI, byName["fmi"].Report.BPKI)
		}
	}
	if byName["phmm"].Report.BPKI > 1 {
		t.Errorf("phmm BPKI %.2f should be ~0", byName["phmm"].Report.BPKI)
	}
	if s := byName["kmer-cnt"].Report.StallFraction; s < 0.5 || s > 0.9 {
		t.Errorf("kmer-cnt stall %.2f outside the paper's ~0.69 region", s)
	}
	if s := byName["fmi"].Report.StallFraction; s < 0.3 || s > 0.6 {
		t.Errorf("fmi stall %.2f outside the paper's ~0.42 region", s)
	}
	// Top-down: compute kernels retire most slots.
	for _, k := range []string{"bsw", "chain", "phmm", "grm"} {
		if r := byName[k].TopDown.Retiring; r < 0.5 {
			t.Errorf("%s retiring %.2f, want > 0.5", k, r)
		}
	}
	if r := byName["kmer-cnt"].TopDown.BackendMemory; r < 0.5 {
		t.Errorf("kmer-cnt backend-memory %.2f, want > 0.5", r)
	}
	// Memoization: second call returns identical data.
	again := MemoryProfiles(7)
	if again[0].Report != profiles[0].Report {
		t.Error("MemoryProfiles not memoized deterministically")
	}
}

func TestVectorWasteShowsOverhead(t *testing.T) {
	tab := VectorWaste(7)
	if len(tab.Rows) != 3 {
		t.Fatalf("vector waste table has %d rows", len(tab.Rows))
	}
	overhead := tab.Rows[2][1]
	if !strings.HasSuffix(overhead, "x") {
		t.Fatalf("overhead cell %q", overhead)
	}
	if overhead < "1.1" { // string compare adequate for #.##x format
		t.Errorf("overhead %s should exceed 1.1x", overhead)
	}
}

func TestFig4IrregularOnly(t *testing.T) {
	tab := Fig4(Small, 7)
	if len(tab.Rows) != 8 {
		t.Errorf("Fig4 has %d rows, want 8 irregular kernels", len(tab.Rows))
	}
}

func TestFig7ProfilesComplete(t *testing.T) {
	tab, profiles := Fig7(Small, 7, []int{1, 8})
	if len(profiles) != 12 {
		t.Fatalf("got %d scaling profiles", len(profiles))
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("Fig7 table has %d rows", len(tab.Rows))
	}
	byName := map[string]ScalingProfile{}
	for _, p := range profiles {
		byName[p.Name] = p
	}
	// The model must cap kmer-cnt below the near-perfect kernels.
	k := byName["kmer-cnt"].Modeled[1]
	b := byName["bsw"].Modeled[1]
	if k >= b {
		t.Errorf("modeled kmer-cnt speedup %.2f should be below bsw %.2f", k, b)
	}
}

func TestCacheSweepShape(t *testing.T) {
	points := CacheSweep(7, []string{"fmi", "spoa"}, []int{2 << 20, 32 << 20})
	if len(points) != 4 {
		t.Fatalf("got %d sweep points", len(points))
	}
	get := func(name string, size int) cachesim.Report {
		for _, p := range points {
			if p.Name == name && p.LLCSize == size {
				return p.Report
			}
		}
		t.Fatalf("missing point %s/%d", name, size)
		return cachesim.Report{}
	}
	// fmi's 10 GB working set: BPKI nearly flat across LLC sizes.
	fmiSmall := get("fmi", 2<<20).BPKI
	fmiBig := get("fmi", 32<<20).BPKI
	if fmiBig <= 0 {
		t.Fatal("fmi BPKI zero")
	}
	if ratio := fmiSmall / fmiBig; ratio > 4 {
		t.Errorf("fmi BPKI collapsed with LLC growth (ratio %.1f)", ratio)
	}
	// spoa's per-window buffers fit a big LLC: BPKI must fall.
	spoaSmall := get("spoa", 2<<20).BPKI
	spoaBig := get("spoa", 32<<20).BPKI
	if spoaBig >= spoaSmall {
		t.Errorf("spoa BPKI did not fall with LLC growth: %.2f -> %.2f", spoaSmall, spoaBig)
	}
}

func TestCacheSweepTableRenders(t *testing.T) {
	tab := CacheSweepTable(7)
	if len(tab.Rows) != 3 {
		t.Fatalf("sweep table has %d rows", len(tab.Rows))
	}
}

func TestDatasetDeterminism(t *testing.T) {
	// Same (size, seed) must produce byte-identical work: the suite's
	// reproducibility guarantee.
	for _, b := range Benchmarks() {
		info := b.Info()
		b.Prepare(Small, 99)
		first := mustRun(b, 1)
		b.Prepare(Small, 99)
		second := mustRun(b, 1)
		b.Release()
		if first.Counters != second.Counters {
			t.Errorf("%s: counters differ across identical Prepare/Run", info.Name)
		}
		for k, v := range first.Extra {
			if second.Extra[k] != v {
				t.Errorf("%s: extra[%s] %v != %v", info.Name, k, v, second.Extra[k])
			}
		}
	}
}

// Every kernel statistic is a function of the input alone: each task
// writes its own slot and one serial loop folds them in task order, so
// Counters, Extra and the TaskStats sample sequence (not only its
// summary) are the same at any thread count and on any schedule.
func TestRunStatsScheduleInvariant(t *testing.T) {
	for _, b := range Benchmarks() {
		name := b.Info().Name
		b.Prepare(Small, 42)
		want := mustRun(b, 1)
		for _, threads := range []int{1, 2, 2, 4, 4} {
			got := mustRun(b, threads)
			if got.Counters != want.Counters {
				t.Errorf("%s: counters at %d threads %v, at 1 thread %v", name, threads, got.Counters.Ops, want.Counters.Ops)
			}
			if !maps.Equal(got.Extra, want.Extra) {
				t.Errorf("%s: extra at %d threads %v, at 1 thread %v", name, threads, got.Extra, want.Extra)
			}
			if got.TaskStats.Summarize() != want.TaskStats.Summarize() {
				t.Errorf("%s: task summary at %d threads %v, at 1 thread %v", name, threads, got.TaskStats.Summarize(), want.TaskStats.Summarize())
			}
			if !slices.Equal(got.TaskStats.Work(), want.TaskStats.Work()) {
				t.Errorf("%s: task sample sequence at %d threads differs from the 1-thread (task) order", name, threads)
			}
		}
		b.Release()
	}
}
