package nnvariant

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/genome"
	"repro/internal/pileup"
	"repro/internal/simio"
)

// syntheticCounts builds a counts window with uniform coverage of the
// given reference and an optional het SNV at hetPos.
func syntheticCounts(ref genome.Seq, depth uint32, hetPos int, altBase genome.Base) []pileup.Counts {
	counts := make([]pileup.Counts, len(ref))
	for p := range counts {
		for d := uint32(0); d < depth; d++ {
			strand := int(d % 2)
			b := ref[p]
			if p == hetPos && d < depth/2 {
				b = altBase
			}
			counts[p].Base[strand][b]++
		}
	}
	return counts
}

func TestBuildTensorShapeAndNormalization(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := genome.Random(rng, 100)
	counts := syntheticCounts(ref, 20, -1, 0)
	x := BuildTensor(counts, 50)
	if x.Rows != Positions || x.Cols != Features {
		t.Fatalf("tensor shape (%d,%d)", x.Rows, x.Cols)
	}
	// At every position, the raw encoding (first 8 channels) sums to 1.
	for p := 0; p < Positions; p++ {
		var sum float64
		for ch := 0; ch < Channels; ch++ {
			sum += float64(x.At(p, ch))
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("position %d raw channels sum %v", p, sum)
		}
	}
}

func TestBuildTensorAltEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := genome.Random(rng, 100)
	ref[50] = genome.A
	counts := syntheticCounts(ref, 20, 50, genome.T)
	x := BuildTensor(counts, 50)
	centre := Positions / 2
	// The alternative-allele encoding (block d) should show support for
	// T (the minority allele) but none for the majority base.
	maj, _, _ := counts[50].MajorityBase()
	var altSupport float64
	for strand := 0; strand < 2; strand++ {
		altSupport += float64(x.At(centre, 3*Channels+strand*4+int(genome.T)))
	}
	if maj == genome.T {
		t.Skip("tie broke toward T; majority ambiguous")
	}
	if altSupport <= 0 {
		t.Error("alt encoding shows no support for the SNV allele")
	}
	var majSupport float64
	for strand := 0; strand < 2; strand++ {
		majSupport += float64(x.At(centre, 3*Channels+strand*4+int(maj)))
	}
	if majSupport != 0 {
		t.Error("alt encoding contains the majority base")
	}
}

func TestBuildTensorWindowClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := genome.Random(rng, 40)
	counts := syntheticCounts(ref, 10, -1, 0)
	x := BuildTensor(counts, 2) // window extends before the region
	for p := 0; p < Flank-2; p++ {
		for c := 0; c < Features; c++ {
			if x.At(p, c) != 0 {
				t.Fatalf("out-of-region position %d nonzero", p)
			}
		}
	}
}

func TestPredictHeadsAreDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := genome.Random(rng, 100)
	counts := syntheticCounts(ref, 30, 50, genome.C)
	m := NewModel(7, DefaultConfig())
	call := m.Predict(BuildTensor(counts, 50))
	checkDist := func(name string, xs []float32) {
		var sum float64
		for _, v := range xs {
			if v < 0 || v > 1 {
				t.Fatalf("%s prob %v out of range", name, v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Errorf("%s sums to %v", name, sum)
		}
	}
	checkDist("genotype", call.Genotype[:])
	checkDist("zygosity", call.Zygosity[:])
	checkDist("indel1", call.Indel1[:])
	checkDist("indel2", call.Indel2[:])
}

func TestPredictDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := genome.Random(rng, 100)
	counts := syntheticCounts(ref, 25, 50, genome.G)
	m := NewModel(9, DefaultConfig())
	a := m.Predict(BuildTensor(counts, 50))
	b := m.Predict(BuildTensor(counts, 50))
	if a != b {
		t.Error("prediction not deterministic")
	}
}

func TestSelectCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := genome.Random(rng, 200)
	ref[100] = genome.A
	counts := syntheticCounts(ref, 30, 100, genome.T)
	cands := SelectCandidates(counts, ref, 0, 10, 0.2)
	found := false
	for _, p := range cands {
		if p == 100 {
			found = true
		}
	}
	if !found {
		t.Error("het SNV position not selected")
	}
	// Clean positions should mostly be filtered out.
	if len(cands) > 5 {
		t.Errorf("%d candidates from one variant", len(cands))
	}
	// High depth threshold removes everything.
	if got := SelectCandidates(counts, ref, 0, 100, 0.2); len(got) != 0 {
		t.Error("depth filter failed")
	}
}

func TestEndToEndWithSimulatedAlignments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := genome.Random(rng, 2000)
	alns := simio.SimulateAlignments(rng, ref, 150, simio.AlignSimConfig{
		MeanReadLen: 500, SubRate: 0.01, InsRate: 0.005, DelRate: 0.005,
		MeanQual: 30, RefName: "ref",
	})
	regions := pileup.SplitRegions(len(ref), alns, 1000)
	m := NewModel(11, DefaultConfig())
	var tasks []*Task
	for _, rg := range regions {
		counts, _ := pileup.CountRegion(rg)
		cands := SelectCandidates(counts, ref, rg.Start, 8, 0.25)
		tasks = append(tasks, &Task{Counts: counts, Candidates: cands})
	}
	r1 := must(RunKernelCtx(context.Background(), m, tasks, 1))
	r4 := must(RunKernelCtx(context.Background(), m, tasks, 4))
	if r1.Calls != r4.Calls || r1.MACs != r4.MACs {
		t.Errorf("threading changed results: %+v vs %+v", r1, r4)
	}
	if r1.Tasks != len(tasks) {
		t.Error("task bookkeeping wrong")
	}
	if r1.MACs != uint64(r1.Calls)*m.MACsPerCall() {
		t.Error("MAC accounting inconsistent")
	}
}

func TestMACsPerCallScales(t *testing.T) {
	small := NewModel(1, Config{Hidden: 8, Dense: 16})
	big := NewModel(1, Config{Hidden: 64, Dense: 96})
	if small.MACsPerCall() >= big.MACsPerCall() {
		t.Error("bigger model should cost more")
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
