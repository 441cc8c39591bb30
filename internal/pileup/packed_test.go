package pileup

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
	"repro/internal/simio"
)

// TestCountRegionPackedDifferential pins the packed match-run fast
// path to the per-base reference walker. Counts are integers — there
// is no tolerance here, every counter must agree exactly — across
// simulated alignments whose reads straddle region boundaries in both
// directions and mix indels and clips into the CIGARs.
func TestCountRegionPackedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		ref := genome.Random(rng, 2000+rng.Intn(3000))
		cfg := simio.DefaultAlignSim()
		cfg.MeanReadLen = 60 + rng.Intn(900)
		alns := simio.SimulateAlignments(rng, ref, 40+rng.Intn(120), cfg)
		regionSize := 300 + rng.Intn(1500)
		for _, rg := range SplitRegions(len(ref), alns, regionSize) {
			got, gotReads := CountRegion(rg)
			want, wantReads := CountRegionScalar(rg)
			if gotReads != wantReads {
				t.Fatalf("trial %d: reads = %d, want %d", trial, gotReads, wantReads)
			}
			for p := range want {
				if got[p] != want[p] {
					t.Fatalf("trial %d region [%d,%d) position %d: %+v, want %+v",
						trial, rg.Start, rg.End, rg.Start+p, got[p], want[p])
				}
			}
		}
	}
}

// TestCountRegionPackedRunLengths sweeps match-run lengths across
// 32-base word boundaries, with the runs placed to straddle the
// window's left edge, right edge, both, or neither, and soft clips
// shifting the run to every in-word start phase. Both the packed walk
// and the unpacked byte fallback are pinned to the reference.
func TestCountRegionPackedRunLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, runLen := range []int{1, 4, 15, 16, 17, 31, 32, 33, 64, 65, 127} {
		for _, clip := range []int{0, 1, 7, 31, 32, 45} {
			seq := genome.Random(rng, clip+runLen)
			cig := clipCigar(clip, runLen)
			for _, pos := range []int{95, 100, 150 - runLen/2, 200 - runLen, 197} {
				for _, packed := range []bool{false, true} {
					a := &simio.Alignment{Pos: pos, Cigar: cig, Seq: seq, Reverse: runLen%2 == 0}
					if packed {
						a.Pack()
					}
					rg := &Region{Start: 100, End: 200, Alignments: []*simio.Alignment{a}}
					got, _ := CountRegion(rg)
					want, _ := CountRegionScalar(rg)
					for p := range want {
						if got[p] != want[p] {
							t.Fatalf("runLen %d clip %d pos %d packed %v position %d: %+v, want %+v",
								runLen, clip, pos, packed, rg.Start+p, got[p], want[p])
						}
					}
				}
			}
		}
	}
}

// TestCountRegionShortRunExhaustive drives the short-run SWAR gather
// through every (length, start-phase) pair it can see: all run lengths
// below the cutover crossed with every in-word phase, including every
// phase that straddles a packed word boundary. Each case is pinned
// exactly to the per-base reference.
func TestCountRegionShortRunExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := genome.Random(rng, 96)
	for runLen := 1; runLen < packedRunCutover; runLen++ {
		for phase := 0; phase < 32; phase++ {
			cig := clipCigar(phase, runLen)
			a := &simio.Alignment{Pos: 100, Cigar: cig, Seq: seq[:phase+runLen], Reverse: phase%2 == 1}
			a.Pack()
			rg := &Region{Start: 100, End: 200, Alignments: []*simio.Alignment{a}}
			got, _ := CountRegion(rg)
			want, _ := CountRegionScalar(rg)
			for p := range want {
				if got[p] != want[p] {
					t.Fatalf("runLen %d phase %d position %d: %+v, want %+v",
						runLen, phase, rg.Start+p, got[p], want[p])
				}
			}
		}
	}
}

// TestCountRegionForcedPolicies re-runs the run-length sweep with the
// dispatch thresholds pinned to each extreme, so the byte walk, the
// short gather, and the word walk each cover the whole short regime
// regardless of what the microprobe measures on the test host. The
// thresholds are pure dispatch policy: results must be identical.
func TestCountRegionForcedPolicies(t *testing.T) {
	policies := []struct {
		name        string
		short, word int
	}{
		{"byte-only-below-cutover", packedRunCutover, packedRunCutover},
		{"gather-below-cutover", 0, packedRunCutover},
		{"word-everywhere", 0, 1},
	}
	rng := rand.New(rand.NewSource(11))
	seq := genome.Random(rng, 96)
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			defer shortRunMin.Set(pol.short)()
			defer wordRunMin.Set(pol.word)()
			for runLen := 1; runLen < packedRunCutover; runLen += 3 {
				for phase := 0; phase < 32; phase += 5 {
					cig := clipCigar(phase, runLen)
					a := &simio.Alignment{Pos: 100, Cigar: cig, Seq: seq[:phase+runLen], Reverse: phase%2 == 1}
					a.Pack()
					rg := &Region{Start: 100, End: 200, Alignments: []*simio.Alignment{a}}
					got, _ := CountRegion(rg)
					want, _ := CountRegionScalar(rg)
					for p := range want {
						if got[p] != want[p] {
							t.Fatalf("runLen %d phase %d position %d: %+v, want %+v",
								runLen, phase, rg.Start+p, got[p], want[p])
						}
					}
				}
			}
		})
	}
}

// TestProbeRunThresholds checks the microprobe yields in-range,
// memoized thresholds. It makes no claim about WHICH walker wins —
// that is the point of measuring — only that the answer is usable.
func TestProbeRunThresholds(t *testing.T) {
	got := probeRunThresholds()
	if got.short < 0 || got.short > packedRunCutover {
		t.Fatalf("short threshold %d out of range", got.short)
	}
	if got.word < 1 || got.word > packedRunCutover {
		t.Fatalf("word threshold %d out of range", got.word)
	}
	if again := probeRunThresholds(); again != got {
		t.Fatalf("probe not memoized: %+v then %+v", got, again)
	}
}

func clipCigar(clip, runLen int) simio.Cigar {
	if clip == 0 {
		return simio.Cigar{{Len: runLen, Op: simio.CigarMatch}}
	}
	return simio.Cigar{{Len: clip, Op: simio.CigarSoftClip}, {Len: runLen, Op: simio.CigarMatch}}
}
