package abea

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/digest"
	"repro/internal/genome"
	"repro/internal/signalsim"
)

// TestDigestDifferential: the suite's abea signature is tasks, cells
// and out-of-band counts, none of which moves when a score is wrong.
// KernelResult.Digest is over the scores too: it must equal the scalar
// reference's fold on every SIMD tier and at 1, 2 and 4 threads, and
// one perturbed event mean must move it.
func TestDigestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	model := signalsim.NewPoreModel()
	src := genome.Random(rng, 20000)
	reads := signalsim.SimulateReads(rng, model, src, 12, 100, 500, signalsim.DefaultConfig())
	cfg := DefaultConfig()
	reference := func() uint64 {
		h := digest.Seed
		for _, r := range reads {
			h = digest.Word(h, alignInto(model, r.Seq, r.Events, cfg, nil, nil).fold(digest.Seed))
		}
		return h
	}
	want := reference()
	forEachTier(t, func(t *testing.T) {
		for _, threads := range []int{1, 2, 4} {
			got := must(RunKernelCtx(context.Background(), model, reads, cfg, threads))
			if got.Reads != len(reads) || got.Digest != want {
				t.Errorf("%d threads: reads=%d digest=%016x, want reads=%d digest=%016x (alignInto reference)",
					threads, got.Reads, got.Digest, len(reads), want)
			}
		}
	})

	ev := &reads[len(reads)/2].Events[40]
	ev.Mean += 0.5
	got := must(RunKernelCtx(context.Background(), model, reads, cfg, 2))
	if got.Digest == want {
		t.Error("digest did not move when an event mean changed")
	}
	if moved := reference(); got.Digest != moved {
		t.Errorf("perturbed read: digest %016x, alignInto reference %016x", got.Digest, moved)
	}
}
