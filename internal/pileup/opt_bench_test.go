package pileup

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
	"repro/internal/simio"
)

func benchRegion(b *testing.B, pack, hifi bool) *Region {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	ref := genome.Random(rng, 20_000)
	cfg := simio.DefaultAlignSim()
	cfg.MeanReadLen = 800
	if hifi {
		cfg.SubRate, cfg.InsRate, cfg.DelRate = 0.001, 0.0005, 0.0005
	}
	alns := simio.SimulateAlignments(rng, ref, 200, cfg)
	if !pack {
		for i, a := range alns {
			c := *a
			c = simio.Alignment{ReadName: c.ReadName, RefName: c.RefName, Pos: c.Pos,
				MapQ: c.MapQ, Cigar: c.Cigar, Seq: c.Seq, Qual: c.Qual, Reverse: c.Reverse}
			alns[i] = &c
		}
	}
	return SplitRegions(len(ref), alns, 20_000)[0]
}

func BenchmarkCountRegion(b *testing.B) {
	for _, hifi := range []bool{false, true} {
		name := "ont"
		if hifi {
			name = "hifi"
		}
		b.Run(name+"/scalar", func(b *testing.B) {
			rg := benchRegion(b, false, hifi)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CountRegionScalar(rg)
			}
		})
		b.Run(name+"/clamped-bytes", func(b *testing.B) {
			rg := benchRegion(b, false, hifi) // unpacked records: clamped byte fallback
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CountRegion(rg, nil)
			}
		})
		b.Run(name+"/packed", func(b *testing.B) {
			rg := benchRegion(b, true, hifi)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CountRegion(rg, nil)
			}
		})
	}
}
