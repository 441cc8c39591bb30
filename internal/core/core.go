// Package core is the GenomicsBench suite driver: it registers the
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

// registry holds the kernels in suite order.
var registry []Benchmark

// Register adds a benchmark; called from init functions below.
func Register(b Benchmark) { registry = append(registry, b) }

// Benchmarks returns all registered kernels in suite order.
func Benchmarks() []Benchmark {
	out := make([]Benchmark, len(registry))
	copy(out, registry)
	return out
}

// ByName returns the kernel with the given name.
func ByName(name string) (Benchmark, error) {
	for _, b := range registry {
		if b.Info().Name == name {
			return b, nil
		}
	}
	names := make([]string, 0, len(registry))
	for _, b := range registry {
		names = append(names, b.Info().Name)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("core: unknown benchmark %q (have %v)", name, names)
}

// Names lists all kernel names in suite order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for _, b := range registry {
		out = append(out, b.Info().Name)
	}
	return out
}
