package chain

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/scratch"
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

// Scratch is one worker's reusable chaining state: the DP arrays, the
// extraction order and the answer's backing arrays, grown to the
// largest task seen. It is not safe for concurrent use.
type Scratch struct {
	score   []float64
	parent  []int
	order   []int
	used    []bool
	members []int // every chain's anchors, back to back
	chains  []Chain
}

// ChainAnchors runs the 1-D chaining DP over anchors (sorted by X) and
// extracts non-overlapping chains by descending score. It returns the
// chains and the number of anchor-pair comparisons performed (the
// kernel's data-parallel computation unit). With a non-nil s the
// chains alias s until its next call; a nil s allocates them afresh.
func ChainAnchors(anchors []Anchor, cfg Config, s *Scratch) ([]Chain, uint64) {
	n := len(anchors)
	if n == 0 {
		return nil, 0
	}
	if s == nil {
		s = new(Scratch)
	}
	score := scratch.Grow(s.score, n)
	parent := scratch.Grow(s.parent, n)
	order := scratch.Grow(s.order, n)
	used := scratch.Grow(s.used, n)
	s.score, s.parent, s.order, s.used = score, parent, order, used
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
			if v := score[j] + alpha - beta; v > score[i] {
				score[i] = v
				parent[i] = j
			}
		}
	}
	// Extract chains: order anchor end-points by score, walk parents,
	// skipping anchors already consumed by a better chain.
	for i := range order {
		order[i] = i
		used[i] = false
	}
	sortByScoreDesc(order, score)
	// A chain's members are anchors no other chain holds, so n ints
	// back every chain and appending never moves an earlier one.
	if cap(s.members) < n {
		s.members = make([]int, 0, n)
	}
	members, chains := s.members[:0], s.chains[:0]
	for _, end := range order {
		if used[end] || score[end] < cfg.MinScore {
			continue
		}
		start := len(members)
		for at := end; at >= 0 && !used[at]; at = parent[at] {
			members = append(members, at)
			used[at] = true
		}
		c := members[start:]
		if len(c) < cfg.MinAnchors {
			members = members[:start]
			continue
		}
		// Reverse into ascending order.
		for l, r := 0, len(c)-1; l < r; l, r = l+1, r-1 {
			c[l], c[r] = c[r], c[l]
		}
		chains = append(chains, Chain{Score: score[end], Anchors: c[:len(c):len(c)]})
	}
	s.chains = chains
	return chains, comparisons
}

func sortByScoreDesc(order []int, score []float64) {
	// Introsort-style quicksort with a closure; isolated for reuse.
	quickSort(order, func(a, b int) bool { return score[a] > score[b] }, 2*bits.Len(uint(len(order))))
}

// quickSort is a depth-bounded Hoare quicksort. Skewed partitions —
// duplicate-heavy score arrays are the common source, and every anchor
// tie scores identically — burn the depth budget instead of the
// goroutine stack: once it is spent the range falls back to a stable
// O(n log n) merge sort, which returns exactly the permutation
// insertion sort, the small-range finisher, would. Recursing on the
// smaller half and looping on the larger keeps the stack O(log n)
// even before the budget trips.
func quickSort(xs []int, less func(a, b int) bool, depth int) {
	for len(xs) > 12 {
		if depth == 0 {
			slices.SortStableFunc(xs, func(a, b int) int {
				if less(a, b) {
					return -1
				}
				if less(b, a) {
					return 1
				}
				return 0
			})
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
