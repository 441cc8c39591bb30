package bsw

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/genome"
)

// naiveLocalSW is an O(mn) reference Smith-Waterman with affine gaps.
func naiveLocalSW(q, t genome.Seq, p Params) int {
	m, n := len(q), len(t)
	H := make([][]int, m+1)
	E := make([][]int, m+1)
	F := make([][]int, m+1)
	for i := range H {
		H[i] = make([]int, n+1)
		E[i] = make([]int, n+1)
		F[i] = make([]int, n+1)
		for j := range E[i] {
			E[i][j] = negInf
			F[i][j] = negInf
		}
	}
	best := 0
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			s := p.Match
			if q[i-1] != t[j-1] {
				s = -p.Mismatch
			}
			e := H[i-1][j] - p.GapOpen - p.GapExtend
			if E[i-1][j]-p.GapExtend > e {
				e = E[i-1][j] - p.GapExtend
			}
			f := H[i][j-1] - p.GapOpen - p.GapExtend
			if F[i][j-1]-p.GapExtend > f {
				f = F[i][j-1] - p.GapExtend
			}
			h := H[i-1][j-1] + s
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			if h < 0 {
				h = 0
			}
			H[i][j] = h
			E[i][j] = e
			F[i][j] = f
			if h > best {
				best = h
			}
		}
	}
	return best
}

func TestAlignFullMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := DefaultParams()
	for trial := 0; trial < 40; trial++ {
		q := genome.Random(rng, 1+rng.Intn(40))
		tg := genome.Random(rng, 1+rng.Intn(40))
		got := AlignFull(q, tg, p).Score
		want := naiveLocalSW(q, tg, p)
		if got != want {
			t.Fatalf("trial %d: AlignFull = %d, naive = %d (q=%s t=%s)", trial, got, want, q, tg)
		}
	}
}

func TestBandedWideEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := DefaultParams()
	p.Mode = Local
	p.ZDrop = 0
	for trial := 0; trial < 20; trial++ {
		q := genome.Random(rng, 30)
		tg := genome.Random(rng, 35)
		p.Band = 100
		wide := Align(q, tg, p).Score
		full := AlignFull(q, tg, p).Score
		if wide != full {
			t.Fatalf("wide band %d != full %d", wide, full)
		}
	}
}

func TestBandedNarrowLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := DefaultParams()
	p.Mode = Local
	p.ZDrop = 0
	for trial := 0; trial < 20; trial++ {
		q := genome.Random(rng, 50)
		tg := genome.Random(rng, 50)
		p.Band = 3
		narrow := Align(q, tg, p).Score
		full := AlignFull(q, tg, p).Score
		if narrow > full {
			t.Fatalf("narrow band score %d exceeds full %d", narrow, full)
		}
	}
}

func TestExtensionPerfectMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := genome.Random(rng, 80)
	p := DefaultParams()
	r := Align(q, q, p)
	if r.Score != 80*p.Match {
		t.Errorf("perfect extension score %d, want %d", r.Score, 80*p.Match)
	}
	if r.QEnd != 80 || r.TEnd != 80 {
		t.Errorf("end (%d,%d), want (80,80)", r.QEnd, r.TEnd)
	}
	if r.ZDropped {
		t.Error("perfect match z-dropped")
	}
}

func TestExtensionSingleMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := genome.Random(rng, 60)
	tg := q.Clone()
	tg[30] = genome.Complement(tg[30])
	p := DefaultParams()
	r := Align(q, tg, p)
	want := 60*p.Match - p.Match - p.Mismatch // one match lost, one mismatch penalty
	if r.Score != want {
		t.Errorf("score %d, want %d", r.Score, want)
	}
}

func TestExtensionGap(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := genome.Random(rng, 60)
	// Target has a 3-base deletion relative to query.
	tg := append(base[:30].Clone(), base[33:]...)
	p := DefaultParams()
	r := Align(base, tg, p)
	want := 57*p.Match - p.GapOpen - 3*p.GapExtend
	if r.Score != want {
		t.Errorf("gap score %d, want %d", r.Score, want)
	}
}

func TestZDropAbortsDissimilar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := genome.Random(rng, 400)
	tg := genome.Random(rng, 400)
	p := DefaultParams()
	p.ZDrop = 50
	r := Align(q, tg, p)
	if !r.ZDropped {
		t.Error("random 400-base pair did not z-drop")
	}
	full := p
	full.ZDrop = 0
	rFull := Align(q, tg, full)
	if r.CellUpdates >= rFull.CellUpdates {
		t.Errorf("z-drop computed %d cells, full %d", r.CellUpdates, rFull.CellUpdates)
	}
}

func TestAlignEmptyInputs(t *testing.T) {
	p := DefaultParams()
	if r := Align(nil, genome.MustFromString("ACGT"), p); r.Score != 0 || r.CellUpdates != 0 {
		t.Error("empty query should produce zero result")
	}
	if r := Align(genome.MustFromString("ACGT"), nil, p); r.Score != 0 {
		t.Error("empty target should produce zero result")
	}
}

func TestBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := DefaultParams()
	var pairs []Pair
	for i := 0; i < 33; i++ { // not a multiple of lane count
		n := 30 + rng.Intn(100)
		q := genome.Random(rng, n)
		tg := q.Clone()
		for m := 0; m < n/20; m++ {
			tg[rng.Intn(n)] = genome.Base(rng.Intn(4))
		}
		pairs = append(pairs, Pair{q, tg})
	}
	results, stats := AlignBatch(pairs, p, 16)
	for i, pr := range pairs {
		want := Align(pr.Query, pr.Target, p)
		if results[i].Score != want.Score {
			t.Fatalf("pair %d: batch score %d != scalar %d", i, results[i].Score, want.Score)
		}
	}
	if stats.Overhead() <= 1 {
		t.Errorf("batch overhead %.2f, want > 1 for mixed lengths", stats.Overhead())
	}
	if stats.UsefulCells == 0 || stats.IssuedCells < stats.UsefulCells {
		t.Errorf("stats inconsistent: %+v", stats)
	}
}

func TestBatchOverheadGrowsWithDissimilarity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := DefaultParams()
	p.Band = 20
	p.ZDrop = 40
	similar := make([]Pair, 32)
	mixed := make([]Pair, 32)
	for i := range similar {
		q := genome.Random(rng, 200)
		similar[i] = Pair{q, q.Clone()}
		if i%2 == 0 {
			mixed[i] = Pair{q, q.Clone()}
		} else {
			// Dissimilar: z-drops early, wasting lane slots.
			mixed[i] = Pair{q, genome.Random(rng, 200)}
		}
	}
	_, sSim := AlignBatch(similar, p, 16)
	_, sMix := AlignBatch(mixed, p, 16)
	if sMix.Overhead() <= sSim.Overhead() {
		t.Errorf("mixed overhead %.2f not greater than similar %.2f",
			sMix.Overhead(), sSim.Overhead())
	}
}

func TestRunKernelThreadsConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := DefaultParams()
	pairs := make([]Pair, 30)
	for i := range pairs {
		q := genome.Random(rng, 100)
		tg := q.Clone()
		tg[50] = genome.Complement(tg[50])
		pairs[i] = Pair{q, tg}
	}
	r1 := must(RunKernelCtx(context.Background(), pairs, p, 1))
	r4 := must(RunKernelCtx(context.Background(), pairs, p, 4))
	if r1.TotalScore != r4.TotalScore || r1.CellUpdates != r4.CellUpdates {
		t.Errorf("threading changed results: %+v vs %+v", r1, r4)
	}
	if r1.Counters != r4.Counters || !slices.Equal(r1.TaskStats.Work(), r4.TaskStats.Work()) {
		t.Error("counters or task-order sample sequence depend on the thread count")
	}
	if r1.TaskStats.Count() != 30 {
		t.Errorf("task stats count %d", r1.TaskStats.Count())
	}
	if r1.Counters.Ops[0] == 0 && r1.Counters.Total() == 0 {
		t.Error("no counters recorded")
	}
}

func TestCellUpdatesRespectBand(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q := genome.Random(rng, 100)
	tg := genome.Random(rng, 100)
	p := DefaultParams()
	p.Mode = Local
	p.ZDrop = 0
	p.Band = 5
	r := Align(q, tg, p)
	maxCells := uint64(100 * 11) // rows x full band width
	if r.CellUpdates > maxCells {
		t.Errorf("banded alignment computed %d cells, cap %d", r.CellUpdates, maxCells)
	}
	p.Band = 1000
	rFull := Align(q, tg, p)
	if rFull.CellUpdates != 100*100 {
		t.Errorf("full-band cells %d, want 10000", rFull.CellUpdates)
	}
}

// Local Smith-Waterman is invariant under reversing both sequences and
// under complementing both (score function is base-agnostic).
func TestLocalScoreSymmetries(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := DefaultParams()
	p.Mode = Local
	p.ZDrop = 0
	p.Band = 1000
	rev := func(s genome.Seq) genome.Seq {
		out := make(genome.Seq, len(s))
		for i, b := range s {
			out[len(s)-1-i] = b
		}
		return out
	}
	for trial := 0; trial < 20; trial++ {
		q := genome.Random(rng, 10+rng.Intn(40))
		tg := genome.Random(rng, 10+rng.Intn(40))
		base := Align(q, tg, p).Score
		if got := Align(rev(q), rev(tg), p).Score; got != base {
			t.Fatalf("reversal changed local score: %d vs %d", got, base)
		}
		if got := Align(q.ReverseComplement(), tg.ReverseComplement(), p).Score; got != base {
			t.Fatalf("reverse-complement changed local score: %d vs %d", got, base)
		}
	}
}

// Swapping query and target transposes the DP matrix; with symmetric
// scoring the local score is unchanged.
func TestLocalScoreTransposeSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := DefaultParams()
	p.Mode = Local
	p.ZDrop = 0
	p.Band = 1000
	for trial := 0; trial < 20; trial++ {
		q := genome.Random(rng, 10+rng.Intn(40))
		tg := genome.Random(rng, 10+rng.Intn(40))
		if a, b := Align(q, tg, p).Score, Align(tg, q, p).Score; a != b {
			t.Fatalf("transpose changed local score: %d vs %d", a, b)
		}
	}
}

// must unwraps a RunKernelCtx result; a kernel run under a background
// context with no fault plan armed cannot fail.
func must(res KernelResult, err error) KernelResult {
	if err != nil {
		panic(err)
	}
	return res
}
