// Package core is the GenomicsBench suite driver: it declares the
// twelve kernels with their paper metadata (Tables II and III), builds
// the small/large synthetic datasets, runs kernels under timing and
// instrumentation, and regenerates every table and figure of the
// paper's evaluation section.
package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/perf"
	"repro/internal/shard"
)

// Size selects a dataset preset.
type Size int

// Dataset sizes. The paper ships small inputs that finish in minutes
// and large inputs that take 5-20 minutes single-threaded; this
// reproduction scales both down proportionally so the full suite runs
// on a laptop, preserving the small:large ratio.
const (
	Small Size = iota
	Large
)

func (s Size) String() string {
	if s == Large {
		return "large"
	}
	return "small"
}

// ParseSize converts a flag string.
func ParseSize(s string) (Size, error) {
	switch s {
	case "small":
		return Small, nil
	case "large":
		return Large, nil
	}
	return Small, fmt.Errorf("core: unknown size %q (want small or large)", s)
}

// Info is a kernel's static metadata, mirroring the paper's Tables II
// and III.
type Info struct {
	Name        string // suite name (fmi, bsw, ...)
	Tool        string // software tool the kernel was extracted from
	Pipeline    string // reference-guided / de novo / metagenomics / population
	Motif       string // parallelism motif (Table II)
	Granularity string // data-parallelism granularity (Table III)
	WorkUnit    string // data-parallel computation unit (Table III)
	Irregular   bool   // irregular compute pattern
	GPU         bool   // has a GPU (SIMT-modelled) implementation
}

// RunStats is the outcome of one kernel execution.
type RunStats struct {
	Elapsed   time.Duration
	Counters  perf.Counters
	TaskStats *perf.TaskStats
	// Extra carries kernel-specific scalars (SMEM counts, chain counts,
	// haplotypes, ...), keyed by short names.
	Extra map[string]float64
}

// Benchmark is one suite kernel: Prepare builds its dataset (seeded,
// deterministic), RunCtx executes it with the given thread count under
// cooperative cancellation, and Release drops the dataset so a driver
// iterating many kernels does not accumulate every dataset on the heap
// (which inflates GC cost on later kernels).
type Benchmark interface {
	Info() Info
	Prepare(size Size, seed int64)
	RunCtx(ctx context.Context, threads int) (RunStats, error)
	Release()
}

// kernelDef is a kernel's one declaration, over its dataset type D.
// Everything else the suite knows about the kernel derives from its
// entry in the kernels table (benchmarks.go): the Benchmark the drivers
// run, the shard.Executor the fabric runs, its row in every table.
type kernelDef[D any] struct {
	info Info // the paper's Table II/III row
	// build generates the dataset, deterministically in (size, seed).
	build func(size Size, seed int64) D
	// loop binds the kernel's task loop to a dataset: a perTask's with
	// method (tasks.go), or kmer-cnt's, which first sizes the run's bins.
	// Every kernel's work splits into tasks — one dataset element, fmi's
	// chunk of reads, a grm block, a phmm piece, a kmer-cnt partition —
	// and bench.RunCtx times the loop's run and stamps Elapsed.
	loop func(d D) taskLoop

	// tasks is set by the kernels that split into independent tasks
	// with no cross-task state, and makes them shardable (shardexec.go):
	// the number of tasks build makes, from size alone. The coordinator
	// partitions a job by it before any dataset exists, where a count
	// that depended on the seed could not be known. The executor runs
	// the tasks through loop, which a shardable kernel must set.
	tasks func(Size) int
}

// kernel is a kernelDef with D erased, so that twelve of them make one
// table.
type kernel struct {
	info        Info
	newBench    func() Benchmark
	tasks       func(Size) int        // the entry's tasks; nil unless shardable
	newExecutor func() shard.Executor // nil unless the kernel is shardable
}

func (d kernelDef[D]) row() kernel {
	k := kernel{info: d.info, newBench: func() Benchmark { return &bench[D]{def: &d} }, tasks: d.tasks}
	if d.tasks != nil {
		k.newExecutor = func() shard.Executor { return &executor[D]{def: &d} }
	}
	return k
}

// bench is the Benchmark of a kernelDef: the entry plus the dataset
// one Prepare built. Each holder of a bench owns its dataset.
type bench[D any] struct {
	def  *kernelDef[D]
	data D
}

func (b *bench[D]) Info() Info { return b.def.info }

func (b *bench[D]) Prepare(size Size, seed int64) { b.data = b.def.build(size, seed) }

func (b *bench[D]) RunCtx(ctx context.Context, threads int) (RunStats, error) {
	start := time.Now()
	stats, err := b.def.loop(b.data).run(ctx, threads)
	if err != nil {
		return RunStats{}, err
	}
	stats.Elapsed = time.Since(start)
	return stats, nil
}

func (b *bench[D]) Release() { b.data = *new(D) }

// Benchmarks returns a fresh instance of every kernel, in suite order.
func Benchmarks() []Benchmark {
	out := make([]Benchmark, len(kernels))
	for i, k := range kernels {
		out[i] = k.newBench()
	}
	return out
}

// lookup finds a kernel's table entry by name.
func lookup(name string) (kernel, bool) {
	for _, k := range kernels {
		if k.info.Name == name {
			return k, true
		}
	}
	return kernel{}, false
}

// ByName returns a fresh instance of the kernel with the given name.
func ByName(name string) (Benchmark, error) {
	if k, ok := lookup(name); ok {
		return k.newBench(), nil
	}
	names := Names()
	sort.Strings(names)
	return nil, fmt.Errorf("core: unknown benchmark %q (have %v)", name, names)
}

// Names lists all kernel names in suite order.
func Names() []string {
	out := make([]string, 0, len(kernels))
	for _, k := range kernels {
		out = append(out, k.info.Name)
	}
	return out
}
