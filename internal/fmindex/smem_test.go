package fmindex

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/genome"
	"repro/internal/readsim"
)

// longReadsAt simulates n long reads of ~1.2 kb from g at one error
// rate, on both strands.
func longReadsAt(g genome.Seq, errRate float64, n int, seed int64) []genome.Seq {
	cfg := readsim.DefaultLong()
	cfg.MeanLength = 1_200
	cfg.ErrorRate = errRate
	var reads []genome.Seq
	for _, r := range readsim.New(seed).LongReads(g, -1, n, cfg, "r") {
		reads = append(reads, r.Seq)
	}
	return reads
}

// TestLongSMEMsMatchFindSMEMs holds the floored walk to the reference:
// on long reads at three error rates and five seed floors, LongSMEMs
// returns FindSMEMs' matches in FindSMEMs' order. The walk without the
// floor does FindSMEMs' Occ lookups on a reused scratch, and with it
// never more; at the metagenomics smem stage's parameters (8 % error,
// 25 bp) strictly fewer.
func TestLongSMEMsMatchFindSMEMs(t *testing.T) {
	g := genome.Random(rand.New(rand.NewSource(51)), 100_000)
	x := Build(g)
	var s SMEMScratch
	var dst []SMEM
	for ri, errRate := range []float64{0.01, 0.08, 0.15} {
		reads := longReadsAt(g, errRate, 12, int64(52+ri))
		for _, minLen := range []int{1, 10, 19, 25, 40} {
			var refLk, walkLk, prunedLk uint64
			for i, read := range reads {
				want := x.FindSMEMs(read, minLen, 1, &refLk)
				dst = x.LongSMEMs(dst[:0], read, minLen, &s)
				if !slices.Equal(dst, want) {
					t.Fatalf("error %.2f, minLen %d, read %d (len %d): LongSMEMs diverge\nFindSMEMs: %+v\nLongSMEMs: %+v",
						errRate, minLen, i, len(read), want, dst)
				}
				before := walkLk
				x.walkSMEMs(nil, read, minLen, 1, false, &s, &walkLk, nil)
				var lk uint64
				x.walkSMEMs(nil, read, minLen, 1, true, &s, &lk, nil)
				if lk > walkLk-before {
					t.Fatalf("error %.2f, minLen %d, read %d: %d lookups with the floor, %d without",
						errRate, minLen, i, lk, walkLk-before)
				}
				prunedLk += lk
			}
			if walkLk != refLk {
				t.Fatalf("error %.2f, minLen %d: unfloored walk did %d lookups, FindSMEMs %d", errRate, minLen, walkLk, refLk)
			}
			if errRate == 0.08 && minLen == 25 {
				if prunedLk >= refLk {
					t.Fatalf("scenario parameters: %d lookups with the floor, not below FindSMEMs' %d", prunedLk, refLk)
				}
				t.Logf("error %.2f, minLen %d: %.0f -> %.0f Occ lookups per read",
					errRate, minLen, float64(refLk)/float64(len(reads)), float64(prunedLk)/float64(len(reads)))
			}
		}
	}
}

// TestLongSMEMsZeroAllocSteadyState: once the scratch and the output
// buffer have grown, a LongSMEMs search allocates nothing. This is the
// per-item shape of scenario/metagenomics' smem stage.
func TestLongSMEMsZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := genome.Random(rng, 4096)
	x := Build(g)
	long := g[1000:2200].Clone()
	for m := 0; m < 96; m++ {
		long[rng.Intn(len(long))] = genome.Base(rng.Intn(4))
	}
	var s SMEMScratch
	var dst []SMEM
	run := func() { dst = x.LongSMEMs(dst[:0], long, 19, &s) }
	run() // warm the grow-only scratch
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("steady-state allocs/run = %v, want 0", allocs)
	}
	if len(dst) == 0 {
		t.Fatal("no SMEMs found")
	}
}
