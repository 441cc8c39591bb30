package abea

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/genome"
	"repro/internal/scratch"
	"repro/internal/signalsim"
)

// answer is what the suite's abea task digest folds from one read:
// the float32 bits of its score, its cell count, its out-of-band flag.
func answer(r Result) [3]uint64 {
	var oob uint64
	if r.OutOfBand {
		oob = 1
	}
	return [3]uint64{uint64(math.Float32bits(r.Score)), r.CellUpdates, oob}
}

// TestDigestDifferential: the suite's abea signature is tasks, cells
// and out-of-band counts, none of which moves when a score is wrong;
// its task digest folds the scores too. On every SIMD tier the lanes,
// run the way the suite runs them (one worker arena across reads),
// must give every read the scalar reference's answer, and one
// perturbed event mean must move that read's answer.
func TestDigestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	model := signalsim.NewPoreModel()
	src := genome.Random(rng, 20000)
	reads := signalsim.SimulateReads(rng, model, src, 12, 100, 500, signalsim.DefaultConfig())
	cfg := DefaultConfig()
	check := func(t *testing.T, what string) {
		a := scratch.New()
		for i, r := range reads {
			got := answer(AlignLanesInto(model, r.Seq, r.Events, cfg, a))
			if want := answer(alignInto(model, r.Seq, r.Events, cfg, nil, nil)); got != want {
				t.Errorf("%s read %d: lanes %x, alignInto reference %x", what, i, got, want)
			}
		}
	}
	forEachTier(t, func(t *testing.T) { check(t, "clean") })

	r := &reads[len(reads)/2]
	before := answer(alignInto(model, r.Seq, r.Events, cfg, nil, nil))
	r.Events[40].Mean += 0.5
	if answer(alignInto(model, r.Seq, r.Events, cfg, nil, nil)) == before {
		t.Error("the answer did not move when an event mean changed")
	}
	check(t, "perturbed")
}
