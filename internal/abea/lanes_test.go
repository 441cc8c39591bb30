package abea

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/digest"
	"repro/internal/genome"
	"repro/internal/scratch"
	"repro/internal/signalsim"
)

// forEachTier runs f with the SIMD ceiling forced to each GBENCH_SIMD
// value: "off" takes the portable quad body, "avx2" the assembly
// (skipped when the host has none to force). "sse2" names no tier any
// more; a stale pin must take the portable body exactly as "off" does.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range []string{"off", "sse2", "avx2"} {
		t.Run(tier, func(t *testing.T) {
			defer cpufeat.ForceForTest(tier)()
			if tier == "avx2" && !(haveBandAsm && cpufeat.AVX2()) {
				t.Skip("no AVX2 on this host")
			}
			if tier == "sse2" && cpufeat.AVX2() {
				t.Fatal("GBENCH_SIMD=sse2 must pin the portable body, not AVX2")
			}
			f(t)
		})
	}
}

// lanesMatchScalar aligns one read on the scalar reference and on the
// lane-blocked sweep at the current tier and reports the first answer
// that differs: score bits, work counter, out-of-band flag, or the
// band trajectory (every band's arg-max offset, which decides every
// band move).
func lanesMatchScalar(model *signalsim.PoreModel, seq genome.Seq, events []signalsim.Event, cfg Config, a *scratch.Arena) error {
	wantTraj, gotTraj := trajectory(digest.Seed), trajectory(digest.Seed)
	want := alignInto(model, seq, events, cfg, nil, &wantTraj)
	got := alignLanesInto(model, seq, events, cfg, a, &gotTraj)
	switch {
	case math.Float32bits(got.Score) != math.Float32bits(want.Score):
		return fmt.Errorf("Score = %v (%x), want %v (%x) bit-exact", got.Score, math.Float32bits(got.Score), want.Score, math.Float32bits(want.Score))
	case got.CellUpdates != want.CellUpdates:
		return fmt.Errorf("CellUpdates = %d, want %d", got.CellUpdates, want.CellUpdates)
	case got.OutOfBand != want.OutOfBand || got.Aligned != want.Aligned:
		return fmt.Errorf("(OutOfBand, Aligned) = (%v, %d), want (%v, %d)", got.OutOfBand, got.Aligned, want.OutOfBand, want.Aligned)
	case gotTraj != wantTraj:
		return fmt.Errorf("band trajectory digest %016x, want %016x", uint64(gotTraj), uint64(wantTraj))
	}
	return nil
}

// TestAlignLanesBitIdentical pins the lane-blocked band sweep to the
// scalar reference bit-for-bit on every SIMD tier: the restructuring
// only hoists and reorders loads (emission tables, padded predecessor
// reads) and the assembly replays the same float operations in the
// same order, so there is no tolerance here — score, band path, work
// counters and out-of-band behaviour must all agree exactly. The band
// grid straddles the 8-lane vector (W = 9, 8, 7) and the reads include
// ones shorter than the band, whose interiors never reach 8 cells.
func TestAlignLanesBitIdentical(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		model := signalsim.NewPoreModel()
		a := scratch.New()
		widths := []int{100, 64, 16, 9, 8, 7, 4, 2}
		for trial := 0; trial < 64; trial++ {
			n := 20 + rng.Intn(400)
			if trial%4 == 3 {
				n = signalsim.K + rng.Intn(12) // fewer k-mers than band cells
			}
			seq := genome.Random(rng, n)
			simCfg := signalsim.DefaultConfig()
			if trial%3 == 0 {
				simCfg.NoiseScale = 3 // noisy reads wander the band
			}
			events := signalsim.Simulate(rng, model, seq, simCfg)
			if trial%5 == 4 {
				// Unrelated sequence: drives out-of-band terminations.
				seq = genome.Random(rng, n)
			}
			cfg := Config{BandWidth: widths[trial%len(widths)]}
			if trial >= 32 {
				cfg.BandWidth = widths[rng.Intn(len(widths))]
			}
			if err := lanesMatchScalar(model, seq, events, cfg, a); err != nil {
				t.Fatalf("trial %d (W=%d |seq|=%d |events|=%d): %v", trial, cfg.BandWidth, len(seq), len(events), err)
			}
		}
	})
}

// FuzzAlignLanes: any sequence, event means (model-range values and
// outliers up to Inf and NaN) and band width align to the same bits on
// the scalar reference, the dispatched tier and the forced-portable
// body, and never panic.
func FuzzAlignLanes(f *testing.F) {
	f.Add([]byte("ACGTACGTAC"), []byte{0x10, 0x80, 0x20, 0x90, 0x30, 0xa0}, uint8(8))
	model := signalsim.NewPoreModel()
	outliers := []float32{0, float32(math.Copysign(0, -1)), 1e-40, 1e20, -1e20, 3e38,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), -1e30}
	f.Fuzz(func(t *testing.T, seqBytes, evBytes []byte, w uint8) {
		if len(seqBytes) > 160 {
			seqBytes = seqBytes[:160]
		}
		if len(evBytes) > 480 {
			evBytes = evBytes[:480]
		}
		seq := make(genome.Seq, len(seqBytes))
		for i, b := range seqBytes {
			seq[i] = genome.Base(b & 3)
		}
		// Two bytes per event: a mean on the model's 60-130 pA range,
		// or, behind a 0xff marker, one of the outliers.
		events := make([]signalsim.Event, len(evBytes)/2)
		for i := range events {
			hi, lo := evBytes[2*i], evBytes[2*i+1]
			events[i].Mean = 60 + 70*float32(uint16(hi)<<8|uint16(lo))/65535
			if hi == 0xff {
				events[i].Mean = outliers[int(lo)%len(outliers)]
			}
		}
		cfg := Config{BandWidth: int(w)}
		if err := lanesMatchScalar(model, seq, events, cfg, nil); err != nil {
			t.Fatalf("dispatched tier (%s): %v", cpufeat.String(), err)
		}
		defer cpufeat.ForceForTest("off")()
		if err := lanesMatchScalar(model, seq, events, cfg, nil); err != nil {
			t.Fatalf("forced portable: %v", err)
		}
	})
}

// TestAlignLanesDegenerate mirrors the scalar degenerate cases.
func TestAlignLanesDegenerate(t *testing.T) {
	model := signalsim.NewPoreModel()
	if r := AlignLanesInto(model, genome.MustFromString("ACG"), nil, DefaultConfig(), nil); r.Score != negInf {
		t.Error("short sequence should yield -inf")
	}
	rng := rand.New(rand.NewSource(32))
	seq := genome.Random(rng, 50)
	if r := AlignLanesInto(model, seq, nil, DefaultConfig(), nil); r.Score != negInf {
		t.Error("no events should yield -inf")
	}
}

// TestAlignLanesZeroAlloc: steady-state alignment into a warm arena
// must not touch the heap on any tier (the assembly's argument block
// stays on the stack).
func TestAlignLanesZeroAlloc(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		model := signalsim.NewPoreModel()
		seq := genome.Random(rng, 200)
		events := signalsim.Simulate(rng, model, seq, signalsim.DefaultConfig())
		a := scratch.New()
		AlignLanesInto(model, seq, events, DefaultConfig(), a) // warm the arena
		allocs := testing.AllocsPerRun(20, func() {
			AlignLanesInto(model, seq, events, DefaultConfig(), a)
		})
		if allocs != 0 {
			t.Fatalf("AlignLanesInto allocates %v/op on a warm arena, want 0", allocs)
		}
	})
}

// BenchmarkAlignLanes is the band sweep's before/after pair: the scalar
// reference, the portable quad body (tier forced off) and whatever the
// host dispatches to (the AVX2 assembly where there is one).
func BenchmarkAlignLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(34))
	model := signalsim.NewPoreModel()
	seq := genome.Random(rng, 2000)
	events := signalsim.Simulate(rng, model, seq, signalsim.DefaultConfig())
	cfg := DefaultConfig()
	run := func(align func(*signalsim.PoreModel, genome.Seq, []signalsim.Event, Config, *scratch.Arena) Result) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			a := scratch.New()
			var cells uint64
			for i := 0; i < b.N; i++ {
				cells += align(model, seq, events, cfg, a).CellUpdates
			}
			b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
		}
	}
	b.Run("scalar", run(AlignInto))
	b.Run("portable", func(b *testing.B) {
		defer cpufeat.ForceForTest("off")()
		run(AlignLanesInto)(b)
	})
	b.Run("dispatched", run(AlignLanesInto))
}
