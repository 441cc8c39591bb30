package chain

import (
	"context"
	"math"
	"math/bits"

	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/perf"
)

// Config parameterizes the chaining DP, defaults following Minimap2.
type Config struct {
	MaxLookback int     // N previous anchors compared per anchor (paper default 25)
	MaxDist     int32   // maximum gap between chainable anchors
	GapScale    float64 // linear gap cost coefficient
	MinScore    float64 // minimum chain score to report
	MinAnchors  int     // minimum anchors per reported chain
}

// DefaultConfig mirrors Minimap2's chaining defaults.
func DefaultConfig() Config {
	return Config{
		MaxLookback: 25,
		MaxDist:     5000,
		GapScale:    0.01,
		MinScore:    40,
		MinAnchors:  3,
	}
}

// Chain is one reported co-linear anchor group.
type Chain struct {
	Score   float64
	Anchors []int // indices into the input anchor slice, ascending
}

// Span returns the target and query extents of the chain as
// half-open intervals. Anchor coordinates are seed END positions
// (inclusive), the Minimap2 convention.
func (c Chain) Span(anchors []Anchor) (x0, x1, y0, y1 int32) {
	if len(c.Anchors) == 0 {
		return
	}
	first := anchors[c.Anchors[0]]
	last := anchors[c.Anchors[len(c.Anchors)-1]]
	x0 = first.X - first.W + 1
	x1 = last.X + 1
	y0 = first.Y - first.W + 1
	y1 = last.Y + 1
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	return
}

// alphaBeta computes the match gain alpha(j,i) and gap penalty
// beta(j,i) between anchors j (earlier) and i, following Minimap2:
// alpha is the number of new matching bases after overlap, beta is a
// linear + log penalty on the difference of the two gaps.
func alphaBeta(aj, ai Anchor, cfg *Config) (alpha, beta float64, ok bool) {
	dx := ai.X - aj.X
	dy := ai.Y - aj.Y
	if dy <= 0 || dx <= 0 {
		return 0, 0, false
	}
	if dx > cfg.MaxDist || dy > cfg.MaxDist {
		return 0, 0, false
	}
	minD := dx
	if dy < minD {
		minD = dy
	}
	if int32(ai.W) < minD {
		minD = ai.W
	}
	alpha = float64(minD)
	gap := dx - dy
	if gap < 0 {
		gap = -gap
	}
	if gap != 0 {
		beta = cfg.GapScale*float64(ai.W)*float64(gap) + 0.5*math.Log2(float64(gap))
	}
	return alpha, beta, true
}

// ChainAnchors runs the 1-D chaining DP over anchors (sorted by X) and
// extracts non-overlapping chains by descending score. It returns the
// chains and the number of anchor-pair comparisons performed (the
// kernel's data-parallel computation unit).
func ChainAnchors(anchors []Anchor, cfg Config) ([]Chain, uint64) {
	n := len(anchors)
	if n == 0 {
		return nil, 0
	}
	score := make([]float64, n)
	parent := make([]int, n)
	var comparisons uint64
	for i := 0; i < n; i++ {
		score[i] = float64(anchors[i].W)
		parent[i] = -1
		lo := i - cfg.MaxLookback
		if lo < 0 {
			lo = 0
		}
		for j := i - 1; j >= lo; j-- {
			comparisons++
			alpha, beta, ok := alphaBeta(anchors[j], anchors[i], &cfg)
			if !ok {
				continue
			}
			if s := score[j] + alpha - beta; s > score[i] {
				score[i] = s
				parent[i] = j
			}
		}
	}
	// Extract chains: order anchor end-points by score, walk parents,
	// skipping anchors already consumed by a better chain.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Simple insertion of sort by descending score.
	sortByScoreDesc(order, score)
	used := make([]bool, n)
	var chains []Chain
	for _, end := range order {
		if used[end] || score[end] < cfg.MinScore {
			continue
		}
		var members []int
		for at := end; at >= 0 && !used[at]; at = parent[at] {
			members = append(members, at)
			used[at] = true
		}
		if len(members) < cfg.MinAnchors {
			continue
		}
		// Reverse into ascending order.
		for l, r := 0, len(members)-1; l < r; l, r = l+1, r-1 {
			members[l], members[r] = members[r], members[l]
		}
		chains = append(chains, Chain{Score: score[end], Anchors: members})
	}
	return chains, comparisons
}

func sortByScoreDesc(order []int, score []float64) {
	// Introsort-style quicksort with a closure; isolated for reuse.
	quickSort(order, func(a, b int) bool { return score[a] > score[b] }, 2*bits.Len(uint(len(order))))
}

// quickSort is a depth-bounded Hoare quicksort. Skewed partitions —
// duplicate-heavy score arrays are the common source, and every anchor
// tie scores identically — burn the depth budget instead of the
// goroutine stack: once it is spent the range falls back to insertion
// sort, which is also the small-range finisher. Recursing on the
// smaller half and looping on the larger keeps the stack O(log n)
// even before the budget trips.
func quickSort(xs []int, less func(a, b int) bool, depth int) {
	for len(xs) > 12 {
		if depth == 0 {
			insertionSort(xs, less)
			return
		}
		depth--
		pivot := xs[len(xs)/2]
		left, right := 0, len(xs)-1
		for left <= right {
			for less(xs[left], pivot) {
				left++
			}
			for less(pivot, xs[right]) {
				right--
			}
			if left <= right {
				xs[left], xs[right] = xs[right], xs[left]
				left++
				right--
			}
		}
		if right+1 < len(xs)-left {
			quickSort(xs[:right+1], less, depth)
			xs = xs[left:]
		} else {
			quickSort(xs[left:], less, depth)
			xs = xs[:right+1]
		}
	}
	insertionSort(xs, less)
}

func insertionSort(xs []int, less func(a, b int) bool) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && less(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// Task is one chaining work item: the anchors shared between one pair
// of reads.
type Task struct {
	Anchors []Anchor
}

// KernelResult aggregates a chain benchmark execution.
type KernelResult struct {
	Tasks       int
	Chains      int
	Comparisons uint64
	TaskStats   *perf.TaskStats // input anchors per task (Table III unit)
	Counters    perf.Counters
}

// RunKernelCtx chains every task with dynamic scheduling, under
// cooperative cancellation and with a fault trip-point per task.
func RunKernelCtx(ctx context.Context, tasks []Task, cfg Config, threads int) (KernelResult, error) {
	if threads <= 0 {
		threads = 1
	}
	type slot struct {
		chains int
		comps  uint64
	}
	slots := make([]slot, len(tasks))
	err := parallel.ForEachCtxErr(ctx, len(tasks), threads, func(tctx context.Context, w, i int) error {
		if err := faultinject.Point(tctx); err != nil {
			return err
		}
		chains, comps := ChainAnchors(tasks[i].Anchors, cfg)
		slots[i] = slot{len(chains), comps}
		return nil
	})
	if err != nil {
		return KernelResult{}, err
	}
	res := KernelResult{Tasks: len(tasks), TaskStats: perf.NewTaskStats("input anchors")}
	for i := range slots {
		res.Chains += slots[i].chains
		res.Comparisons += slots[i].comps
		res.TaskStats.Observe(float64(len(tasks[i].Anchors)))
	}
	// Chaining is scalar compute-bound: per comparison roughly a dozen
	// integer ops for the gap geometry, an FP gap-cost evaluation
	// (with log2) and data-dependent branches.
	res.Counters.Add(perf.IntALU, res.Comparisons*10)
	res.Counters.Add(perf.FloatOp, res.Comparisons*4)
	res.Counters.Add(perf.Load, res.Comparisons*3)
	res.Counters.Add(perf.Branch, res.Comparisons*4)
	return res, nil
}
