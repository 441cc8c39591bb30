package abea

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
	"repro/internal/scratch"
	"repro/internal/signalsim"
)

// A reused arena must give bit-identical results to a fresh one: band
// buffers carry stale scores between reads, and every cell must be
// rewritten before it is read.
func TestAlignIntoArenaReuseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	model := signalsim.NewPoreModel()
	arena := scratch.New()
	for trial := 0; trial < 40; trial++ {
		seq := genome.Random(rng, 20+rng.Intn(120))
		events := signalsim.Simulate(rng, model, seq, signalsim.DefaultConfig())
		want := alignInto(model, seq, events, DefaultConfig(), nil, nil)
		got := alignInto(model, seq, events, DefaultConfig(), arena, nil)
		if got != want {
			t.Fatalf("trial %d (|seq|=%d |events|=%d): got %+v want %+v",
				trial, len(seq), len(events), got, want)
		}
	}
}

// The steady-state read loop must be allocation-free with a warm
// arena.
func TestAlignIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	model := signalsim.NewPoreModel()
	seq := genome.Random(rng, 80)
	events := signalsim.Simulate(rng, model, seq, signalsim.DefaultConfig())
	arena := scratch.New()
	alignInto(model, seq, events, DefaultConfig(), arena, nil) // warm
	n := testing.AllocsPerRun(20, func() {
		alignInto(model, seq, events, DefaultConfig(), arena, nil)
	})
	if n != 0 {
		t.Fatalf("AllocsPerRun = %v, want 0", n)
	}
}

// Fresh-arena versus pooled alignment: the bench harness's abea
// before/after pair.
func BenchmarkAlignBanded(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	model := signalsim.NewPoreModel()
	seq := genome.Random(rng, 150)
	events := signalsim.Simulate(rng, model, seq, signalsim.DefaultConfig())
	cfg := DefaultConfig()
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			alignInto(model, seq, events, cfg, nil, nil)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		arena := scratch.New()
		for i := 0; i < b.N; i++ {
			alignInto(model, seq, events, cfg, arena, nil)
		}
	})
}
