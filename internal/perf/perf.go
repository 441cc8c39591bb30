// Package perf provides the software instrumentation used to reproduce
// GenomicsBench's characterization experiments: semantic operation
// counters standing in for the MICA pintool's dynamic instruction mix
// (paper Figure 5) and per-task work-distribution statistics standing in
// for the task imbalance study (paper Figure 4).
//
// Kernel drivers derive their counters from the run's totals and
// record one TaskStats sample per task, in task order, after the
// parallel loop (docs/KERNELS.md, "Driver shape"). The counters are
// plain uint64 fields, so code that does count from an inner loop adds
// only an increment per counted operation.
package perf

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// OpClass is a semantic operation category mirroring the instruction
// classes in the paper's Figure 5.
type OpClass int

// Operation classes.
const (
	IntALU  OpClass = iota // scalar integer arithmetic/logic
	FloatOp                // scalar floating point
	VecOp                  // vector (lock-step batch) operations
	Load                   // memory reads
	Store                  // memory writes
	Branch                 // conditional control flow
	Other                  // string/system/sync/etc.
	numOpClasses
)

var opClassNames = [...]string{"int-alu", "float", "vector", "load", "store", "branch", "other"}

func (c OpClass) String() string {
	if c < 0 || int(c) >= len(opClassNames) {
		return fmt.Sprintf("OpClass(%d)", int(c))
	}
	return opClassNames[c]
}

// CacheLineSize is the assumed coherence granularity. 64 bytes is
// correct for every x86 and most arm64 parts; a wrong guess only
// costs padding, never correctness.
const CacheLineSize = 64

// CacheLinePad is a full cache line of padding. Embed it (as a blank
// field) at the end of per-worker structs stored in a contiguous slice
// (internal/parallel's scheduler state): it guarantees no two workers'
// hot fields share a line, whatever the struct's size or the slice's
// base alignment.
type CacheLinePad struct{ _ [CacheLineSize]byte }

// Counters accumulates operation counts for one execution context.
// The zero value is ready to use.
//
// The struct is padded so its size is a multiple of the cache line:
// multi-threaded kernels keep one Counters per worker in a contiguous
// slice, and without the padding adjacent workers' uint64 increments
// false-share cache lines, quietly inflating multi-threaded op-mix
// timings (see BenchmarkWorkerShardsPadded for the measured effect).
type Counters struct {
	Ops [numOpClasses]uint64
	_   [CacheLineSize - (numOpClasses*8)%CacheLineSize]byte
}

// Add increments a class by n.
func (c *Counters) Add(class OpClass, n uint64) { c.Ops[class] += n }

// Merge adds other's counts into c.
func (c *Counters) Merge(other *Counters) {
	for i := range c.Ops {
		c.Ops[i] += other.Ops[i]
	}
}

// Total returns the total operation count across all classes.
func (c *Counters) Total() uint64 {
	var t uint64
	for _, v := range c.Ops {
		t += v
	}
	return t
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// Fractions returns each class's share of the total, or all zeros when no
// operations were counted.
func (c *Counters) Fractions() [numOpClasses]float64 {
	var out [numOpClasses]float64
	total := c.Total()
	if total == 0 {
		return out
	}
	for i, v := range c.Ops {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// String renders the counters as a compact single-line report.
func (c *Counters) String() string {
	var b strings.Builder
	total := c.Total()
	fmt.Fprintf(&b, "total=%d", total)
	for i, v := range c.Ops {
		if v > 0 {
			fmt.Fprintf(&b, " %s=%.1f%%", OpClass(i), 100*float64(v)/float64(total))
		}
	}
	return b.String()
}

// NumOpClasses reports how many operation classes exist.
func NumOpClasses() int { return int(numOpClasses) }

// TaskStats records the amount of data-parallel work performed by each
// independent task of a kernel (cell updates, table lookups, ...). It
// backs the paper's Figure 4 imbalance analysis.
type TaskStats struct {
	Unit string // what one work item is, e.g. "cell updates"
	work []float64
}

// NewTaskStats creates an empty distribution with the given work unit.
func NewTaskStats(unit string) *TaskStats { return &TaskStats{Unit: unit} }

// Observe records the work performed by one task.
func (t *TaskStats) Observe(work float64) { t.work = append(t.work, work) }

// Work returns the observations in the order they were recorded
// (kernels record in task order). The slice is read-only.
func (t *TaskStats) Work() []float64 { return t.work }

// Count reports the number of tasks observed.
func (t *TaskStats) Count() int { return len(t.work) }

// Summary holds distribution statistics for a task-work distribution.
type Summary struct {
	Count              int
	Mean, Max, Min     float64
	P50, P90, P99      float64
	MaxToMean          float64 // the paper's imbalance ratio
	CoeffOfVariation   float64
	TotalWork          float64
	FracTasksAboveMean float64
}

// Summarize computes distribution statistics. It returns a zero Summary
// when no tasks were observed.
func (t *TaskStats) Summarize() Summary {
	n := len(t.work)
	if n == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), t.work...)
	sort.Float64s(sorted)
	var sum float64
	for _, w := range sorted {
		sum += w
	}
	mean := sum / float64(n)
	var varSum float64
	above := 0
	for _, w := range sorted {
		d := w - mean
		varSum += d * d
		if w > mean {
			above++
		}
	}
	s := Summary{
		Count:              n,
		Mean:               mean,
		Min:                sorted[0],
		Max:                sorted[n-1],
		P50:                quantile(sorted, 0.50),
		P90:                quantile(sorted, 0.90),
		P99:                quantile(sorted, 0.99),
		TotalWork:          sum,
		FracTasksAboveMean: float64(above) / float64(n),
	}
	if mean > 0 {
		s.MaxToMean = s.Max / mean
		s.CoeffOfVariation = math.Sqrt(varSum/float64(n)) / mean
	}
	return s
}

// quantile returns the q-quantile of an ascending-sorted slice using
// nearest-rank interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the distribution summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g max=%.3g max/mean=%.2fx p99=%.3g cv=%.2f",
		s.Count, s.Mean, s.Max, s.MaxToMean, s.P99, s.CoeffOfVariation)
}

// sparkRunes are the eight block heights of a text sparkline.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders the work distribution as a width-bucket histogram
// sparkline on a log-count scale — a one-cell visualization of the
// paper's Figure 4 scatter.
func (t *TaskStats) Sparkline(width int) string {
	if width <= 0 {
		width = 16
	}
	if len(t.work) == 0 {
		return ""
	}
	lo, hi := t.work[0], t.work[0]
	for _, w := range t.work {
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	buckets := make([]int, width)
	span := hi - lo
	for _, w := range t.work {
		idx := 0
		if span > 0 {
			idx = int((w - lo) / span * float64(width-1))
		}
		buckets[idx]++
	}
	maxCount := 0
	for _, c := range buckets {
		if c > maxCount {
			maxCount = c
		}
	}
	out := make([]rune, width)
	for i, c := range buckets {
		if c == 0 {
			out[i] = ' '
			continue
		}
		// Log scale keeps rare heavy tails visible.
		level := math.Log1p(float64(c)) / math.Log1p(float64(maxCount))
		r := int(level * float64(len(sparkRunes)-1))
		out[i] = sparkRunes[r]
	}
	return string(out)
}
