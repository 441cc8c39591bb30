package dbg

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
)

// tileReads produces error-free reads of length rl tiled every step
// bases across src, so every position has coverage.
func tileReads(src genome.Seq, rl, step int) []genome.Seq {
	var out []genome.Seq
	for pos := 0; pos+rl <= len(src); pos += step {
		out = append(out, src[pos:pos+rl])
	}
	// Ensure the tail is covered.
	if len(src) >= rl {
		out = append(out, src[len(src)-rl:])
	}
	return out
}

func TestAssembleNoVariantsYieldsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := genome.Random(rng, 300)
	rg := &Region{Ref: ref, Reads: tileReads(ref, 100, 10)}
	res := NewAssembler().AssembleRegion(rg, DefaultConfig())
	if res.K == 0 {
		t.Fatal("assembly failed on clean input")
	}
	if len(res.Haplotypes) != 1 {
		t.Fatalf("got %d haplotypes, want 1", len(res.Haplotypes))
	}
	if !res.Haplotypes[0].Equal(ref) {
		t.Error("haplotype does not equal the reference")
	}
	if res.HashLookups == 0 {
		t.Error("no hash lookups counted")
	}
}

func TestAssembleHetSNVYieldsTwoHaplotypes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := genome.Random(rng, 300)
	alt := ref.Clone()
	alt[150] = genome.Complement(alt[150])
	reads := tileReads(ref, 100, 15)
	reads = append(reads, tileReads(alt, 100, 15)...)
	rg := &Region{Ref: ref, Reads: reads}
	res := NewAssembler().AssembleRegion(rg, DefaultConfig())
	if len(res.Haplotypes) != 2 {
		t.Fatalf("got %d haplotypes, want 2", len(res.Haplotypes))
	}
	foundRef, foundAlt := false, false
	for _, h := range res.Haplotypes {
		if h.Equal(ref) {
			foundRef = true
		}
		if h.Equal(alt) {
			foundAlt = true
		}
	}
	if !foundRef || !foundAlt {
		t.Errorf("haplotypes missing ref (%v) or alt (%v)", foundRef, foundAlt)
	}
}

func TestAssembleInsertionHaplotype(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := genome.Random(rng, 300)
	// 5-base insertion at position 150 on the alt haplotype.
	alt := append(ref[:150].Clone(), genome.Random(rng, 5)...)
	alt = append(alt, ref[150:]...)
	reads := tileReads(ref, 100, 15)
	reads = append(reads, tileReads(alt, 100, 15)...)
	rg := &Region{Ref: ref, Reads: reads}
	res := NewAssembler().AssembleRegion(rg, DefaultConfig())
	foundAlt := false
	for _, h := range res.Haplotypes {
		if h.Equal(alt) {
			foundAlt = true
		}
	}
	if !foundAlt {
		t.Errorf("insertion haplotype not recovered among %d haplotypes", len(res.Haplotypes))
	}
}

func TestSequencingErrorsPruned(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := genome.Random(rng, 300)
	reads := tileReads(ref, 100, 10)
	// One read with a single error: weight-1 edges, pruned by
	// MinEdgeWeight=2.
	bad := ref[100:200].Clone()
	bad[50] = genome.Complement(bad[50])
	reads = append(reads, bad)
	rg := &Region{Ref: ref, Reads: reads}
	res := NewAssembler().AssembleRegion(rg, DefaultConfig())
	if len(res.Haplotypes) != 1 {
		t.Fatalf("got %d haplotypes, want 1 (error should be pruned)", len(res.Haplotypes))
	}
	if !res.Haplotypes[0].Equal(ref) {
		t.Error("haplotype is not the reference")
	}
}

func TestRepeatForcesKEscalation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Reference with a 20-base tandem-like repeat separated by a short
	// unique spacer: cyclic at k=15, acyclic at larger k.
	repeat := genome.Random(rng, 20)
	var ref genome.Seq
	ref = append(ref, genome.Random(rng, 80)...)
	ref = append(ref, repeat...)
	ref = append(ref, genome.Random(rng, 10)...)
	ref = append(ref, repeat...)
	ref = append(ref, genome.Random(rng, 80)...)
	rg := &Region{Ref: ref, Reads: tileReads(ref, 100, 10)}
	cfg := DefaultConfig()
	res := NewAssembler().AssembleRegion(rg, cfg)
	if res.CycleRetries == 0 {
		t.Error("expected at least one cycle retry for repeat region")
	}
	if res.K <= cfg.K {
		t.Errorf("k did not escalate: %d", res.K)
	}
	foundRef := false
	for _, h := range res.Haplotypes {
		if h.Equal(ref) {
			foundRef = true
		}
	}
	if !foundRef {
		t.Error("reference haplotype not recovered after escalation")
	}
}

func TestGraphCycleDetection(t *testing.T) {
	// Sequence ending where it began: ACGTACGTACGT has k-mer cycle at k=4.
	s := genome.MustFromString("ACGTACGTACGT")
	g := &graph{}
	g.reset(4)
	g.addSeq(s, true)
	if !g.hasCycleFrom(genome.KmerCode(s, 0, 4), 1) {
		t.Error("tandem repeat should be cyclic at k=4")
	}
	// A non-repetitive sequence is acyclic.
	rng := rand.New(rand.NewSource(6))
	u := genome.Random(rng, 50)
	g2 := &graph{}
	g2.reset(15)
	g2.addSeq(u, true)
	if g2.hasCycleFrom(genome.KmerCode(u, 0, 15), 1) {
		t.Error("random 50-mer flagged cyclic at k=15")
	}
}

func TestMaxHaplotypesCap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := genome.Random(rng, 300)
	reads := tileReads(ref, 100, 10)
	// Plant several het SNVs to explode the path count.
	for _, pos := range []int{60, 120, 180, 240} {
		alt := ref.Clone()
		alt[pos] = genome.Complement(alt[pos])
		reads = append(reads, tileReads(alt, 100, 10)...)
	}
	cfg := DefaultConfig()
	cfg.MaxHaplotypes = 4
	res := NewAssembler().AssembleRegion(&Region{Ref: ref, Reads: reads}, cfg)
	if len(res.Haplotypes) > 4 {
		t.Errorf("%d haplotypes exceed cap 4", len(res.Haplotypes))
	}
}

func TestTinyRegionFallsBack(t *testing.T) {
	rg := &Region{Ref: genome.MustFromString("ACGTACGT")}
	res := NewAssembler().AssembleRegion(rg, DefaultConfig())
	if len(res.Haplotypes) != 1 || !res.Haplotypes[0].Equal(rg.Ref) {
		t.Error("tiny region should fall back to the reference haplotype")
	}
}
