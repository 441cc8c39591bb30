package chain

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/genome"
)

func TestMinimizersDeterministicAndSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := genome.Random(rng, 500)
	a := Minimizers(s, 15, 10)
	b := Minimizers(s, 15, 10)
	if len(a) == 0 {
		t.Fatal("no minimizers from 500-base read")
	}
	if len(a) != len(b) {
		t.Fatal("minimizers not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("minimizers not deterministic")
		}
		if i > 0 && a[i].Pos <= a[i-1].Pos {
			t.Fatal("minimizer positions not increasing")
		}
	}
	// Density: roughly 2/(w+1) of positions.
	density := float64(len(a)) / 500
	if density < 0.05 || density > 0.5 {
		t.Errorf("minimizer density %.3f implausible for w=10", density)
	}
}

func TestMinimizersDegenerate(t *testing.T) {
	s := genome.MustFromString("ACGTACGT")
	if m := Minimizers(s, 15, 10); m != nil {
		t.Error("expected nil minimizers for short sequence")
	}
	if m := Minimizers(s, 0, 5); m != nil {
		t.Error("expected nil for k=0")
	}
}

func TestSharedAnchorsIdenticalReads(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := genome.Random(rng, 1000)
	anchors := SharedAnchors(s, s, 15, 10, 50)
	if len(anchors) == 0 {
		t.Fatal("identical reads share no anchors")
	}
	diagonal := 0
	for _, a := range anchors {
		if a.X == a.Y {
			diagonal++
		}
	}
	if float64(diagonal)/float64(len(anchors)) < 0.9 {
		t.Errorf("only %d/%d anchors on the diagonal for identical reads", diagonal, len(anchors))
	}
	if !sort.SliceIsSorted(anchors, func(i, j int) bool {
		if anchors[i].X != anchors[j].X {
			return anchors[i].X < anchors[j].X
		}
		return anchors[i].Y < anchors[j].Y
	}) {
		t.Error("anchors not sorted")
	}
}

func TestSharedAnchorsUnrelatedReads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := genome.Random(rng, 800)
	b := genome.Random(rng, 800)
	anchors := SharedAnchors(a, b, 15, 10, 50)
	// 15-mers collide with probability 4^-15; expect none.
	if len(anchors) > 2 {
		t.Errorf("unrelated reads share %d anchors", len(anchors))
	}
}

func TestChainAnchorsCollinear(t *testing.T) {
	// Perfectly co-linear anchors every 20 bases.
	var anchors []Anchor
	for i := 0; i < 20; i++ {
		anchors = append(anchors, Anchor{X: int32(100 + 20*i), Y: int32(50 + 20*i), W: 15})
	}
	cfg := DefaultConfig()
	chains, comps := ChainAnchors(anchors, cfg, nil)
	if len(chains) != 1 {
		t.Fatalf("got %d chains, want 1", len(chains))
	}
	if len(chains[0].Anchors) != 20 {
		t.Errorf("chain has %d anchors, want 20", len(chains[0].Anchors))
	}
	if comps == 0 {
		t.Error("no comparisons counted")
	}
	// Score: w for first anchor + ~min(20, w)=15 per subsequent link.
	if chains[0].Score < 15+19*15-1 {
		t.Errorf("chain score %.1f lower than expected", chains[0].Score)
	}
}

func TestChainSplitsOnLargeGap(t *testing.T) {
	var anchors []Anchor
	for i := 0; i < 10; i++ {
		anchors = append(anchors, Anchor{X: int32(100 + 20*i), Y: int32(100 + 20*i), W: 15})
	}
	// Second group far beyond MaxDist.
	for i := 0; i < 10; i++ {
		anchors = append(anchors, Anchor{X: int32(50000 + 20*i), Y: int32(300 + 20*i), W: 15})
	}
	cfg := DefaultConfig()
	cfg.MinScore = 20
	chains, _ := ChainAnchors(anchors, cfg, nil)
	if len(chains) != 2 {
		t.Fatalf("got %d chains, want 2 (gap should split)", len(chains))
	}
}

func TestChainAntiDiagonalRejected(t *testing.T) {
	// Anchors with decreasing Y cannot chain (dy <= 0).
	var anchors []Anchor
	for i := 0; i < 10; i++ {
		anchors = append(anchors, Anchor{X: int32(100 + 20*i), Y: int32(400 - 20*i), W: 15})
	}
	cfg := DefaultConfig()
	cfg.MinScore = 20
	cfg.MinAnchors = 2
	chains, _ := ChainAnchors(anchors, cfg, nil)
	if len(chains) != 0 {
		t.Errorf("anti-diagonal anchors formed %d chains", len(chains))
	}
}

func TestChainScoreAtLeastSeedLen(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var anchors []Anchor
	for i := 0; i < 50; i++ {
		anchors = append(anchors, Anchor{
			X: int32(rng.Intn(2000)), Y: int32(rng.Intn(2000)), W: 15,
		})
	}
	sort.Slice(anchors, func(i, j int) bool { return anchors[i].X < anchors[j].X })
	cfg := DefaultConfig()
	cfg.MinScore = 0
	cfg.MinAnchors = 1
	chains, _ := ChainAnchors(anchors, cfg, nil)
	for _, c := range chains {
		if c.Score < 15 {
			t.Errorf("chain score %.1f below seed length", c.Score)
		}
		if !sort.IntsAreSorted(c.Anchors) {
			t.Error("chain anchors not ascending")
		}
	}
}

func TestChainsDoNotShareAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var anchors []Anchor
	for g := 0; g < 4; g++ {
		base := int32(g * 30000)
		for i := 0; i < 15; i++ {
			anchors = append(anchors, Anchor{X: base + int32(20*i), Y: int32(100 + g*500 + 20*i), W: 15})
		}
	}
	_ = rng
	cfg := DefaultConfig()
	cfg.MinScore = 20
	chains, _ := ChainAnchors(anchors, cfg, nil)
	seen := map[int]bool{}
	for _, c := range chains {
		for _, a := range c.Anchors {
			if seen[a] {
				t.Fatalf("anchor %d in two chains", a)
			}
			seen[a] = true
		}
	}
}

func TestEndToEndOverlapDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := genome.Random(rng, 4000)
	// Two "long reads" overlapping by 1500 bases.
	readA := src[:2500]
	readB := src[1000:3500]
	anchors := SharedAnchors(readB, readA, 15, 10, 50)
	if len(anchors) < 10 {
		t.Fatalf("only %d anchors between overlapping reads", len(anchors))
	}
	chains, _ := ChainAnchors(anchors, DefaultConfig(), nil)
	if len(chains) == 0 {
		t.Fatal("no chain found for overlapping reads")
	}
	// Anchor coordinates are seed end positions (inclusive), so the
	// chain's half-open extents run from its first anchor's seed start
	// to one past its last anchor.
	c := chains[0].Anchors
	first, last := anchors[c[0]], anchors[c[len(c)-1]]
	x0, x1 := first.X-first.W+1, last.X+1
	y0, y1 := first.Y-first.W+1, last.Y+1
	// Overlap on readA is [1000,2500); on readB it is [0,1500).
	if x0 > 1100 || x1 < 2400 {
		t.Errorf("target span [%d,%d) misses overlap [1000,2500)", x0, x1)
	}
	if y0 > 100 || y1 < 1400 {
		t.Errorf("query span [%d,%d) misses overlap [0,1500)", y0, y1)
	}
}

func TestQuickSortOrdering(t *testing.T) {
	xs := []int{5, 3, 1, 4, 2, 0, 9, 8, 7, 6}
	score := []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90}
	sortByScoreDesc(xs, score)
	for i := 1; i < len(xs); i++ {
		if score[xs[i-1]] < score[xs[i]] {
			t.Fatalf("not descending at %d", i)
		}
	}
}

// TestSortByScoreDescPathological: duplicate-heavy and pre-ordered
// score arrays drove the unbounded quicksort into deeply skewed
// recursion; the depth-bounded version must sort them all (all-equal
// especially — every anchor tie scores identically) without leaning on
// the goroutine stack, and still produce a descending permutation.
func TestSortByScoreDescPathological(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 200_000
	cases := map[string]func(i int) float64{
		"all-equal":  func(int) float64 { return 42 },
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(n - i) },
		"two-valued": func(i int) float64 { return float64(i & 1) },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-i)) },
		"random":     func(int) float64 { return rng.Float64() },
	}
	for name, gen := range cases {
		score := make([]float64, n)
		order := make([]int, n)
		for i := range score {
			score[i] = gen(i)
			order[i] = i
		}
		sortByScoreDesc(order, score)
		seen := make([]bool, n)
		for i, idx := range order {
			if seen[idx] {
				t.Fatalf("%s: index %d appears twice", name, idx)
			}
			seen[idx] = true
			if i > 0 && score[order[i-1]] < score[idx] {
				t.Fatalf("%s: order not descending at %d", name, i)
			}
		}
	}
}

// TestSortByScoreDescComparisons: an organ-pipe score array spends
// quickSort's depth budget with most of the range still unsorted, so
// the fallback, not the partitions, sorts it. That fallback must be
// O(n log n) comparisons; insertion sort made it O(n^2), 36 s of the
// pathological test above at 200k anchors.
func TestSortByScoreDescComparisons(t *testing.T) {
	const n = 50_000
	score := make([]float64, n)
	order := make([]int, n)
	for i := range score {
		score[i] = float64(min(i, n-i))
		order[i] = i
	}
	var calls int
	quickSort(order, func(a, b int) bool { calls++; return score[a] > score[b] }, 2*bits.Len(uint(n)))
	for i := 1; i < n; i++ {
		if score[order[i-1]] < score[order[i]] {
			t.Fatalf("order not descending at %d", i)
		}
	}
	if bound := 8 * n * bits.Len(uint(n)); calls > bound {
		t.Fatalf("%d comparisons to sort %d organ-pipe scores, want <= %d (8 n log2 n)", calls, n, bound)
	}
	t.Logf("%d comparisons, %.2f n log2 n", calls, float64(calls)/float64(n*bits.Len(uint(n))))
}

// TestChainAnchorsAllocsBounded: on a warm Scratch a call's allocations
// do not grow with the anchor count, and every answer equals the
// nil-Scratch call's, including the answers of a smaller task after a
// larger one (stale state from the larger task must not leak).
func TestChainAnchorsAllocsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := genome.Random(rng, 20000)
	task := func(n int) []Anchor {
		a := rng.Intn(len(src) - n)
		b := min(a+rng.Intn(n/10), len(src)-n) // mostly overlapping
		return SharedAnchors(src[b:b+n], src[a:a+n], 15, 10, 100)
	}
	small, large := task(1500), task(6000)
	if len(large) < 4*len(small) {
		t.Fatalf("anchor counts %d and %d too close to show growth", len(small), len(large))
	}
	sc := new(Scratch)
	for _, anchors := range [][]Anchor{large, small, large, small} {
		want, wantComps := ChainAnchors(anchors, DefaultConfig(), nil)
		got, gotComps := ChainAnchors(anchors, DefaultConfig(), sc)
		if gotComps != wantComps || len(got) != len(want) {
			t.Fatalf("%d anchors: %d chains, %d comparisons on the scratch; %d, %d without",
				len(anchors), len(got), gotComps, len(want), wantComps)
		}
		for i := range want {
			if got[i].Score != want[i].Score || !slices.Equal(got[i].Anchors, want[i].Anchors) {
				t.Fatalf("%d anchors: chain %d is %+v on the scratch, %+v without", len(anchors), i, got[i], want[i])
			}
		}
	}
	allocs := func(anchors []Anchor) float64 {
		return testing.AllocsPerRun(20, func() { ChainAnchors(anchors, DefaultConfig(), sc) })
	}
	if a, b := allocs(small), allocs(large); b > a || b > 2 {
		t.Fatalf("warm allocations per call: %v at %d anchors, %v at %d; want no growth and at most 2",
			a, len(small), b, len(large))
	}
}
