package bsw

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
	"repro/internal/scratch"
)

// randomPair builds a query and a target that is a mutated copy of it,
// the shape seed extension sees.
func randomPair(rng *rand.Rand) (genome.Seq, genome.Seq) {
	n := 20 + rng.Intn(400)
	q := genome.Random(rng, n)
	t := q.Clone()
	// Plant mismatches and occasional indel-like truncations.
	for k := 0; k < n/10+1; k++ {
		t[rng.Intn(len(t))] = genome.Base(rng.Intn(4))
	}
	if rng.Intn(2) == 0 && len(t) > 10 {
		t = t[:len(t)-rng.Intn(10)]
	}
	return q, t
}

// AlignInto must be bit-identical to the scalar Align on seeded random
// inputs, with z-drop on and off and a spread of band widths.
func TestAlignIntoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	arena := scratch.New()
	for trial := 0; trial < 300; trial++ {
		q, tgt := randomPair(rng)
		p := DefaultParams()
		p.Band = []int{5, 20, 100, 1000}[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			p.ZDrop = 0
		}
		want := Align(q, tgt, p)
		got := AlignInto(q, tgt, p, arena)
		if got != want {
			t.Fatalf("trial %d (zdrop=%d band=%d |q|=%d |t|=%d):\n got %+v\nwant %+v",
				trial, p.ZDrop, p.Band, len(q), len(tgt), got, want)
		}
	}
}

func TestAlignIntoNilArena(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q, tgt := randomPair(rng)
	p := DefaultParams()
	if got, want := AlignInto(q, tgt, p, nil), Align(q, tgt, p); got != want {
		t.Fatalf("nil arena: got %+v want %+v", got, want)
	}
}

func TestAlignIntoEmptyInputs(t *testing.T) {
	p := DefaultParams()
	if r := AlignInto(nil, genome.MustFromString("ACGT"), p, nil); r != (Result{}) {
		t.Fatalf("empty query: %+v", r)
	}
	if r := AlignInto(genome.MustFromString("ACGT"), nil, p, nil); r != (Result{}) {
		t.Fatalf("empty target: %+v", r)
	}
}

// The steady-state task loop must be allocation-free: this is the
// zero-allocation invariant the PR's bench harness gates on.
func TestAlignIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q, tgt := randomPair(rng)
	p := DefaultParams()
	arena := scratch.New()
	AlignInto(q, tgt, p, arena) // warm the arena
	n := testing.AllocsPerRun(50, func() {
		AlignInto(q, tgt, p, arena)
	})
	if n != 0 {
		t.Fatalf("AllocsPerRun = %v, want 0", n)
	}
}

func benchPairs(count int) []Pair {
	rng := rand.New(rand.NewSource(1234))
	pairs := make([]Pair, count)
	for i := range pairs {
		n := 80 + rng.Intn(120)
		q := genome.Random(rng, n)
		t := q.Clone()
		for k := 0; k < 8; k++ {
			t[rng.Intn(len(t))] = genome.Base(rng.Intn(4))
		}
		pairs[i] = Pair{Query: q, Target: t}
	}
	return pairs
}

// Scalar versus bit-parallel pooled alignment: the bench harness's
// bsw before/after pair.
func BenchmarkAlign(b *testing.B) {
	pairs := benchPairs(64)
	p := DefaultParams()
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			Align(pr.Query, pr.Target, p)
		}
	})
	b.Run("packed", func(b *testing.B) {
		b.ReportAllocs()
		arena := scratch.New()
		for i := 0; i < b.N; i++ {
			pr := pairs[i%len(pairs)]
			AlignInto(pr.Query, pr.Target, p, arena)
		}
	})
}
