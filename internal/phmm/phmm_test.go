package phmm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/genome"
)

func uniformQual(n int, q byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = q
	}
	return out
}

func TestFloat32And64Agree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		hap := genome.Random(rng, 60)
		read := hap[10:40].Clone()
		qual := uniformQual(len(read), 30)
		var r32 [6][]float32
		var r64 [6][]float64
		s32, _ := forwardInto(read, qual, hap, initialScale32, flushFloor32, &r32)
		s64, _ := forwardInto(read, qual, hap, initialScale32, 0, &r64)
		l32 := math.Log10(float64(s32))
		l64 := math.Log10(s64)
		if math.Abs(l32-l64) > 1e-3 {
			t.Fatalf("trial %d: log10 f32 %v vs f64 %v", trial, l32, l64)
		}
	}
}

func TestPerfectReadLikelihoodNearExpected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	hap := genome.Random(rng, 100)
	read := hap[20:70].Clone()
	q := byte(30)
	res := LikelihoodInto(read, uniformQual(len(read), q), hap, nil)
	// A perfectly matching read: likelihood ~ (1/n) * prod(priorMatch * tMM)
	// summed over one dominant path.
	err := math.Pow(10, -3)
	want := -math.Log10(float64(len(hap))) +
		float64(len(read))*math.Log10((1-err)*tMM)
	if math.Abs(res.Log10Likelihood-want) > 0.1 {
		t.Errorf("perfect read log10 %v, want ~%v", res.Log10Likelihood, want)
	}
	if res.UsedDouble {
		t.Error("short perfect read should not need float64")
	}
}

func TestMismatchLowersLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	hap := genome.Random(rng, 80)
	read := hap[10:60].Clone()
	qual := uniformQual(len(read), 30)
	perfect := LikelihoodInto(read, qual, hap, nil).Log10Likelihood
	mut := read.Clone()
	mut[25] = genome.Complement(mut[25])
	mutated := LikelihoodInto(mut, qual, hap, nil).Log10Likelihood
	if mutated >= perfect {
		t.Errorf("mismatch likelihood %v not below perfect %v", mutated, perfect)
	}
	// One high-quality mismatch costs roughly log10(err/3 / (1-err)) ≈ -3.6.
	drop := perfect - mutated
	if drop < 2 || drop > 5 {
		t.Errorf("single mismatch drop %v outside [2,5]", drop)
	}
}

func TestLowQualityMismatchCostsLess(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	hap := genome.Random(rng, 80)
	read := hap[10:60].Clone()
	mut := read.Clone()
	mut[25] = genome.Complement(mut[25])

	qualHigh := uniformQual(len(read), 40)
	qualLow := uniformQual(len(read), 40)
	qualLow[25] = 5 // basecaller flags the mismatching base as unreliable

	dropHigh := LikelihoodInto(read, qualHigh, hap, nil).Log10Likelihood -
		LikelihoodInto(mut, qualHigh, hap, nil).Log10Likelihood
	dropLow := LikelihoodInto(read, qualLow, hap, nil).Log10Likelihood -
		LikelihoodInto(mut, qualLow, hap, nil).Log10Likelihood
	if dropLow >= dropHigh {
		t.Errorf("low-quality mismatch drop %v not below high-quality %v", dropLow, dropHigh)
	}
}

func TestLongReadTriggersDoubleFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// A very long read accumulates tiny probabilities that underflow
	// float32 even with scaling.
	hap := genome.Random(rng, 12000)
	read := hap[:10000].Clone()
	qual := uniformQual(len(read), 30)
	res := LikelihoodInto(read, qual, hap, nil)
	if !res.UsedDouble {
		t.Skip("float32 survived; fallback not exercised at this length")
	}
	if math.IsInf(res.Log10Likelihood, 0) || math.IsNaN(res.Log10Likelihood) {
		t.Errorf("fallback produced %v", res.Log10Likelihood)
	}
}

func TestReadPrefersTrueHaplotype(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	hapA := genome.Random(rng, 120)
	hapB := hapA.Clone()
	hapB[60] = genome.Complement(hapB[60])
	// Read sampled from hapB covering the variant.
	read := hapB[40:90].Clone()
	qual := uniformQual(len(read), 30)
	rg := &Region{
		Reads: []genome.Seq{read},
		Quals: [][]byte{qual},
		Haps:  []genome.Seq{hapA, hapB},
	}
	res := EvaluateRegionScalarInto(rg, nil)
	if res.BestHap[0] != 1 {
		t.Errorf("read assigned to hap %d, want 1 (likelihoods %v)", res.BestHap[0], res.Likelihoods)
	}
}

func TestEmptyInputs(t *testing.T) {
	res := LikelihoodInto(nil, nil, genome.MustFromString("ACGT"), nil)
	if !math.IsInf(res.Log10Likelihood, -1) {
		t.Error("empty read should have -Inf likelihood")
	}
}

func TestCellUpdatesCount(t *testing.T) {
	hap := genome.MustFromString("ACGTACGTAC")
	read := genome.MustFromString("ACGTA")
	res := LikelihoodInto(read, uniformQual(5, 30), hap, nil)
	if res.CellUpdates != 50 {
		t.Errorf("CellUpdates = %d, want 50", res.CellUpdates)
	}
}
