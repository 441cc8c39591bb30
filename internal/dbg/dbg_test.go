package dbg

import (
	"context"
	"math/rand"
	"slices"
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
	res := AssembleRegion(rg, DefaultConfig())
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
	res := AssembleRegion(rg, DefaultConfig())
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
	res := AssembleRegion(rg, DefaultConfig())
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
	res := AssembleRegion(rg, DefaultConfig())
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
	res := AssembleRegion(rg, cfg)
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
	g := newGraph(4)
	g.addSeq(s, true)
	if !g.hasCycleFrom(genome.KmerCode(s, 0, 4), 1) {
		t.Error("tandem repeat should be cyclic at k=4")
	}
	// A non-repetitive sequence is acyclic.
	rng := rand.New(rand.NewSource(6))
	u := genome.Random(rng, 50)
	g2 := newGraph(15)
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
	res := AssembleRegion(&Region{Ref: ref, Reads: reads}, cfg)
	if len(res.Haplotypes) > 4 {
		t.Errorf("%d haplotypes exceed cap 4", len(res.Haplotypes))
	}
}

func TestRunKernelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var regions []*Region
	for i := 0; i < 6; i++ {
		ref := genome.Random(rng, 200+rng.Intn(200))
		alt := ref.Clone()
		alt[len(alt)/2] = genome.Complement(alt[len(alt)/2])
		reads := tileReads(ref, 80, 12)
		reads = append(reads, tileReads(alt, 80, 12)...)
		regions = append(regions, &Region{Ref: ref, Reads: reads})
	}
	r1 := must(RunKernelCtx(context.Background(), regions, DefaultConfig(), 1))
	r4 := must(RunKernelCtx(context.Background(), regions, DefaultConfig(), 4))
	if r1.Haplotypes != r4.Haplotypes || r1.HashLookups != r4.HashLookups {
		t.Errorf("threading changed results: %+v vs %+v", r1, r4)
	}
	if r1.Counters != r4.Counters || !slices.Equal(r1.TaskStats.Work(), r4.TaskStats.Work()) {
		t.Error("counters or task-order sample sequence depend on the thread count")
	}
	if r1.TaskStats.Count() != 6 {
		t.Errorf("task count %d", r1.TaskStats.Count())
	}
	if r1.Counters.Total() == 0 {
		t.Error("no ops counted")
	}
}

func TestTinyRegionFallsBack(t *testing.T) {
	rg := &Region{Ref: genome.MustFromString("ACGTACGT")}
	res := AssembleRegion(rg, DefaultConfig())
	if len(res.Haplotypes) != 1 || !res.Haplotypes[0].Equal(rg.Ref) {
		t.Error("tiny region should fall back to the reference haplotype")
	}
}

// must unwraps a RunKernelCtx result; a kernel run under a background
// context with no fault plan armed cannot fail.
func must(res KernelResult, err error) KernelResult {
	if err != nil {
		panic(err)
	}
	return res
}
