package dbg

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
)

func randomDbgRegion(rng *rand.Rand) *Region {
	ref := genome.Random(rng, 80+rng.Intn(200))
	rg := &Region{Ref: ref}
	for r := 0; r < 5+rng.Intn(10); r++ {
		lo := rng.Intn(len(ref) / 2)
		hi := lo + 30 + rng.Intn(len(ref)-lo-30)
		read := ref[lo:hi].Clone()
		for m := 0; m < len(read)/25+1; m++ {
			read[rng.Intn(len(read))] = genome.Base(rng.Intn(4))
		}
		rg.Reads = append(rg.Reads, read)
	}
	return rg
}

func resultsEqual(a, b Result) bool {
	if a.K != b.K || a.Nodes != b.Nodes || a.Edges != b.Edges ||
		a.HashLookups != b.HashLookups || a.CycleRetries != b.CycleRetries ||
		len(a.Haplotypes) != len(b.Haplotypes) {
		return false
	}
	for i := range a.Haplotypes {
		if !a.Haplotypes[i].Equal(b.Haplotypes[i]) {
			return false
		}
	}
	return true
}

// A reused Assembler must produce results identical to fresh assembly
// — including HashLookups, the kernel's reported work metric.
func TestAssemblerReuseDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a := NewAssembler()
	cfg := DefaultConfig()
	for trial := 0; trial < 40; trial++ {
		rg := randomDbgRegion(rng)
		want := NewAssembler().AssembleRegion(rg, cfg)
		got := a.AssembleRegion(rg, cfg)
		if !resultsEqual(got, want) {
			t.Fatalf("trial %d: reused assembler diverged:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// Interleaving regions of very different sizes stresses slab
// truncation and map clearing.
func TestAssemblerReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	a := NewAssembler()
	cfg := DefaultConfig()
	big := randomDbgRegion(rng)
	small := &Region{Ref: genome.Random(rng, 40)}
	for trial := 0; trial < 10; trial++ {
		for _, rg := range []*Region{big, small, big} {
			want := NewAssembler().AssembleRegion(rg, cfg)
			got := a.AssembleRegion(rg, cfg)
			if !resultsEqual(got, want) {
				t.Fatalf("trial %d: diverged after size change", trial)
			}
		}
	}
}

// Fresh-graph versus reused-Assembler region assembly: the bench
// harness's dbg before/after pair.
func BenchmarkAssembleRegion(b *testing.B) {
	rng := rand.New(rand.NewSource(63))
	regions := make([]*Region, 8)
	for i := range regions {
		regions[i] = randomDbgRegion(rng)
	}
	cfg := DefaultConfig()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewAssembler().AssembleRegion(regions[i%len(regions)], cfg)
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		a := NewAssembler()
		for i := 0; i < b.N; i++ {
			a.AssembleRegion(regions[i%len(regions)], cfg)
		}
	})
}
