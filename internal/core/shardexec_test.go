package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bsw"
	"repro/internal/cpufeat"
	"repro/internal/dbg"
	"repro/internal/poa"
	"repro/internal/shard"
)

// shardableKernels names the kernels init registers with the fabric,
// in table order.
func shardableKernels() []string {
	var out []string
	for _, k := range kernels {
		if k.newExecutor != nil {
			out = append(out, k.info.Name)
		}
	}
	return out
}

func mustExecutor(t *testing.T, kernel string) shard.Executor {
	t.Helper()
	ex, err := shard.NewExecutor(kernel)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func preparedExecutor(t *testing.T, kernel, size string, seed int64) (shard.Executor, int) {
	t.Helper()
	ex := mustExecutor(t, kernel)
	n, err := ex.Prepare(size, seed)
	if err != nil {
		t.Fatalf("%s Prepare(%s, %d): %v", kernel, size, seed, err)
	}
	return ex, n
}

// built returns the dataset the named kernel's table entry builds.
func built[D any](t *testing.T, kernel string, size Size, seed int64) D {
	t.Helper()
	b, err := ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	b.Prepare(size, seed)
	return b.(*bench[D]).data
}

func runTask(t *testing.T, kernel string, ex shard.Executor, task int) uint64 {
	t.Helper()
	d, _, err := ex.RunTask(context.Background(), task)
	if err != nil {
		t.Fatalf("%s task %d: %v", kernel, task, err)
	}
	return d
}

// TestExecutorTasksMatchPrepare: the coordinator partitions a job from
// Tasks(size) alone and never sees a dataset, so for every shardable
// kernel the count must be the number of tasks Prepare really builds,
// at both sizes and whatever the seed.
func TestExecutorTasksMatchPrepare(t *testing.T) {
	sizes := []string{"small", "large"}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, kernel := range shardableKernels() {
		for _, size := range sizes {
			want, err := mustExecutor(t, kernel).Tasks(size)
			if err != nil || want <= 0 {
				t.Fatalf("%s Tasks(%s) = %d, %v", kernel, size, want, err)
			}
			for _, seed := range []int64{1, 42} {
				if _, n := preparedExecutor(t, kernel, size, seed); n != want {
					t.Errorf("%s %s seed %d: Prepare built %d tasks, Tasks says %d", kernel, size, seed, n, want)
				}
			}
		}
		if _, err := mustExecutor(t, kernel).Tasks("huge"); err == nil {
			t.Errorf("%s Tasks accepted an unknown size", kernel)
		}
	}
}

// TestExecutorsMatchReferenceKernels: the executors run the production
// per-task entry points; their digest vectors must equal the ones the
// allocating reference functions produce through the same folds.
func TestExecutorsMatchReferenceKernels(t *testing.T) {
	const seed = 42
	refs := map[string]func() []uint64{
		"bsw": func() []uint64 {
			pairs := built[[]bsw.Pair](t, "bsw", Small, seed)
			out := make([]uint64, len(pairs))
			for i, p := range pairs {
				out[i] = bswDigest(bsw.Align(p.Query, p.Target, bsw.DefaultParams()))
			}
			return out
		},
		"spoa": func() []uint64 {
			windows := built[[]*poa.Window](t, "spoa", Small, seed)
			out := make([]uint64, len(windows))
			for i, w := range windows {
				consensus, _ := poa.ConsensusScalarInto(w, poa.DefaultParams(), poa.New())
				out[i] = poaDigest(consensus)
			}
			return out
		},
		"dbg": func() []uint64 {
			regions := built[[]*dbg.Region](t, "dbg", Small, seed)
			out := make([]uint64, len(regions))
			for i, rg := range regions {
				out[i] = dbgDigest(dbg.AssembleRegion(rg, dbg.DefaultConfig()))
			}
			return out
		},
	}
	for kernel, ref := range refs {
		got, _, err := LocalDigests(context.Background(), kernel, "small", seed)
		if err != nil {
			t.Fatalf("%s: %v", kernel, err)
		}
		want := ref()
		if len(got) != len(want) {
			t.Fatalf("%s: %d executor digests, %d reference digests", kernel, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s task %d: executor digest %016x, reference %016x", kernel, i, got[i], want[i])
			}
		}
	}
}

// TestPhmmDigestsTierInvariant: phmm's task digests fold BestHap and
// the bits of every likelihood, so at Small seed 42 — the suite's own
// dataset, straggler region included — they must be equal on the
// dispatched SIMD tier and with the tier forced off.
func TestPhmmDigestsTierInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs phmm Small twice")
	}
	tier := cpufeat.String()
	got, _, err := LocalDigests(context.Background(), "phmm", "small", 42)
	if err != nil {
		t.Fatal(err)
	}
	defer cpufeat.ForceForTest("off")()
	want, _, err := LocalDigests(context.Background(), "phmm", "small", 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phmm task %d: digest %016x at %s, %016x at GBENCH_SIMD=off", i, got[i], tier, want[i])
		}
	}
}

// hammerSeed draws no pathological phmm region at Small (seed 42 draws
// one that is 96 % of the kernel's cells), so every kernel's tasks can
// be swept several times in well under a second.
const hammerSeed = 7

// TestExecutorStateReuseHammer: shards hand an executor arbitrary task
// subsets in arbitrary order and a retry runs them again, so the arena,
// graph, assembler and scratch an executor reuses must carry nothing
// from one task into the next. Every kernel's tasks run in a seeded
// shuffled order, each twice in a row, against the in-order digests.
func TestExecutorStateReuseHammer(t *testing.T) {
	for _, kernel := range shardableKernels() {
		ex, n := preparedExecutor(t, kernel, "small", hammerSeed)
		want := make([]uint64, n)
		for task := range want {
			want[task] = runTask(t, kernel, ex, task)
		}
		for _, task := range rand.New(rand.NewSource(hammerSeed)).Perm(n) {
			for rep := 0; rep < 2; rep++ {
				if got := runTask(t, kernel, ex, task); got != want[task] {
					t.Fatalf("%s task %d (shuffled, run %d): digest %016x, in-order run gave %016x",
						kernel, task, rep+1, got, want[task])
				}
			}
		}
	}
}

// TestExecutorRunTaskAllocs: once a sweep has grown the executor-owned
// state to the largest task, a task allocates what it returns and
// little else — never DP rows, graphs or hash tables again. For scale,
// the reference paths the executors used to call allocate ~1000 (poa)
// and ~60 (dbg) objects per Small task.
func TestExecutorRunTaskAllocs(t *testing.T) {
	limits := []struct {
		kernel string
		max    float64 // mean allocations per task
		why    string
	}{
		{"bsw", 0, "AlignInto on a warm arena"},
		{"spoa", 4, "the returned consensus, plus edge lists still growing on reused nodes: poa's own pooled gate"},
		{"dbg", 16, "the returned haplotypes, ~6 a region, and the slice that collects them"},
		{"phmm", 0, "EvaluateRegionInto on a warm scratch"},
	}
	for _, l := range limits {
		ex, n := preparedExecutor(t, l.kernel, "small", hammerSeed)
		sweep := func() {
			for task := 0; task < n; task++ {
				runTask(t, l.kernel, ex, task)
			}
		}
		sweep()
		if perTask := testing.AllocsPerRun(1, sweep) / float64(n); perTask > l.max {
			t.Errorf("%s RunTask: %.2f allocs/task after warm-up, want <= %v (%s)", l.kernel, perTask, l.max, l.why)
		} else {
			t.Logf("%s RunTask: %.2f allocs/task", l.kernel, perTask)
		}
	}
}
