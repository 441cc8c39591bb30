package nnvariant

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/genome"
	"repro/internal/pileup"
	"repro/internal/scratch"
	"repro/internal/simio"
)

// The 2-bit base codes the synthetic windows plant.
const (
	baseA genome.Base = iota
	baseC
	baseG
	baseT
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
	x := BuildTensor(counts, 50, scratch.New())
	if x.Rows != Positions || x.Cols != Features {
		t.Fatalf("tensor shape (%d,%d)", x.Rows, x.Cols)
	}
	// At every position, the raw encoding (first 8 channels) sums to 1.
	for p := 0; p < Positions; p++ {
		var sum float64
		for ch := 0; ch < Channels; ch++ {
			sum += float64(x.Row(p)[ch])
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("position %d raw channels sum %v", p, sum)
		}
	}
}

func TestBuildTensorAltEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := genome.Random(rng, 100)
	ref[50] = baseA
	counts := syntheticCounts(ref, 20, 50, baseT)
	x := BuildTensor(counts, 50, scratch.New())
	centre := Positions / 2
	// The alternative-allele encoding (block d) should show support for
	// T (the minority allele) but none for the majority base.
	maj, _, _ := counts[50].MajorityBase()
	var altSupport float64
	for strand := 0; strand < 2; strand++ {
		altSupport += float64(x.Row(centre)[3*Channels+strand*4+int(baseT)])
	}
	if maj == baseT {
		t.Skip("tie broke toward T; majority ambiguous")
	}
	if altSupport <= 0 {
		t.Error("alt encoding shows no support for the SNV allele")
	}
	var majSupport float64
	for strand := 0; strand < 2; strand++ {
		majSupport += float64(x.Row(centre)[3*Channels+strand*4+int(maj)])
	}
	if majSupport != 0 {
		t.Error("alt encoding contains the majority base")
	}
}

func TestBuildTensorWindowClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := genome.Random(rng, 40)
	counts := syntheticCounts(ref, 10, -1, 0)
	x := BuildTensor(counts, 2, scratch.New()) // window extends before the region
	for p := 0; p < Flank-2; p++ {
		for c := 0; c < Features; c++ {
			if x.Row(p)[c] != 0 {
				t.Fatalf("out-of-region position %d nonzero", p)
			}
		}
	}
}

func TestPredictHeadsAreDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := genome.Random(rng, 100)
	counts := syntheticCounts(ref, 30, 50, baseC)
	m := NewModel(7, DefaultConfig())
	a := scratch.New()
	call := m.Predict(BuildTensor(counts, 50, a), a)
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
	counts := syntheticCounts(ref, 25, 50, baseG)
	m := NewModel(9, DefaultConfig())
	arenaA, arenaB := scratch.New(), scratch.New()
	a := m.Predict(BuildTensor(counts, 50, arenaA), arenaA)
	b := m.Predict(BuildTensor(counts, 50, arenaB), arenaB)
	if a != b {
		t.Error("prediction not deterministic")
	}
}

func TestSelectCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ref := genome.Random(rng, 200)
	ref[100] = baseA
	counts := syntheticCounts(ref, 30, 100, baseT)
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

// TestEndToEndWithSimulatedAlignments: alignments simulated from a
// donor carrying planted SNPs go through pileup and candidate
// selection against the reference, and the network calls every
// candidate with finite probabilities.
func TestEndToEndWithSimulatedAlignments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ref := genome.Random(rng, 2000)
	donor := ref.Clone()
	for p := 100; p < len(donor); p += 200 {
		donor[p] = genome.Complement(donor[p])
	}
	alns := simio.SimulateAlignments(rng, donor, 150, simio.AlignSimConfig{
		MeanReadLen: 500, SubRate: 0.01, InsRate: 0.005, DelRate: 0.005,
		MeanQual: 30, RefName: "ref",
	})
	regions := pileup.SplitRegions(len(ref), alns, 1000)
	m := NewModel(11, DefaultConfig())
	var tasks []*Task
	for _, rg := range regions {
		counts, _ := pileup.CountRegion(rg, nil)
		cands := SelectCandidates(counts, ref, rg.Start, 8, 0.25)
		tasks = append(tasks, &Task{Counts: counts, Candidates: cands})
	}
	var calls int
	a := scratch.New()
	for _, task := range tasks {
		for _, pos := range task.Candidates {
			a.Reset()
			call := m.Predict(BuildTensor(task.Counts, pos, a), a)
			calls++
			for _, v := range call.Genotype {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("candidate %d: genotype head %v", pos, call.Genotype)
				}
			}
		}
	}
	if calls == 0 {
		t.Fatal("no candidates at ten planted SNPs")
	}
}

func TestMACsPerCallScales(t *testing.T) {
	small := NewModel(1, Config{Hidden: 8, Dense: 16})
	big := NewModel(1, Config{Hidden: 64, Dense: 96})
	if small.MACsPerCall() >= big.MACsPerCall() {
		t.Error("bigger model should cost more")
	}
}

// callBits flattens a Call's four heads into their float32 bits.
func callBits(c Call) []uint32 {
	var bits []uint32
	for _, head := range [][]float32{c.Genotype[:], c.Zygosity[:], c.Indel1[:], c.Indel2[:]} {
		for _, v := range head {
			bits = append(bits, math.Float32bits(v))
		}
	}
	return bits
}

// TestPredictReusesDirtyArena: candidates run through one arena, reset
// before each as the suite's task loop does, so each draws the buffers
// the one before left dirty. A candidate at the region's edge, whose
// window has zero rows, after one in the middle, whose rows are full,
// must build the tensor and make the call a fresh arena does, bit for
// bit.
func TestPredictReusesDirtyArena(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ref := genome.Random(rng, 100)
	counts := syntheticCounts(ref, 24, 50, baseC)
	m := NewModel(13, DefaultConfig())
	a := scratch.New()
	for _, pos := range []int{0, 50, 0, len(counts) - 1, 50} {
		a.Reset()
		x := BuildTensor(counts, pos, a)
		got := m.Predict(x, a)
		fresh := scratch.New()
		wantX := BuildTensor(counts, pos, fresh)
		want := m.Predict(wantX, fresh)
		for i := range wantX.Data {
			if math.Float32bits(x.Data[i]) != math.Float32bits(wantX.Data[i]) {
				t.Fatalf("candidate %d: tensor element %d = %v, want %v", pos, i, x.Data[i], wantX.Data[i])
			}
		}
		if g, w := callBits(got), callBits(want); !slices.Equal(g, w) {
			t.Fatalf("candidate %d: call %+v on the reused arena, %+v on a fresh one", pos, got, want)
		}
	}
}

// TestPredictZeroAlloc: on a warm arena, building a candidate's tensor
// and calling it allocate nothing.
func TestPredictZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := genome.Random(rng, 100)
	counts := syntheticCounts(ref, 20, 50, baseG)
	m := NewModel(3, DefaultConfig())
	a := scratch.New()
	if n := testing.AllocsPerRun(20, func() {
		a.Reset()
		m.Predict(BuildTensor(counts, 50, a), a)
	}); n != 0 {
		t.Fatalf("%v allocs per candidate on a warm arena, want 0", n)
	}
}
