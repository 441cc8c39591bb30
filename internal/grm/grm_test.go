package grm

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// naiveGRM is the direct O(N^2 S) reference.
func naiveGRM(g *Genotypes) []float64 {
	out := make([]float64, g.N*g.N)
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			var sum float64
			for s := 0; s < g.S; s++ {
				p := g.Freqs[s]
				xi := float64(g.Counts[i*g.S+s])
				xj := float64(g.Counts[j*g.S+s])
				sum += (xi - 2*p) * (xj - 2*p) / (2 * p * (1 - p))
			}
			out[i*g.N+j] = sum / float64(g.S)
		}
	}
	return out
}

func TestComputeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := Simulate(rng, 17, 100, 0) // awkward size vs block
	got, flops := Compute(g, 8, 2)
	want := naiveGRM(g)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("element %d: %v vs %v", i, got[i], want[i])
		}
	}
	if flops == 0 {
		t.Error("no FLOPs counted")
	}
}

func TestMatrixSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := Simulate(rng, 30, 200, 0.2)
	m, _ := Compute(g, 16, 4)
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if m[i*g.N+j] != m[j*g.N+i] {
				t.Fatalf("asymmetry at (%d,%d)", i, j)
			}
		}
	}
}

func TestDiagonalNearOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := Simulate(rng, 50, 2000, 0)
	m, _ := Compute(g, 32, 2)
	var sum float64
	for i := 0; i < g.N; i++ {
		sum += m[i*g.N+i]
	}
	mean := sum / float64(g.N)
	// E[z^2] = 1 for Hardy-Weinberg genotypes standardized by true p.
	if mean < 0.8 || mean > 1.2 {
		t.Errorf("mean diagonal %v, want ~1", mean)
	}
}

func TestUnrelatedNearZeroOffDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := Simulate(rng, 40, 5000, 0)
	m, _ := Compute(g, 32, 2)
	var sum float64
	var count int
	for i := 0; i < g.N; i++ {
		for j := i + 1; j < g.N; j++ {
			sum += math.Abs(m[i*g.N+j])
			count++
		}
	}
	mean := sum / float64(count)
	// Off-diagonal entries are O(1/sqrt(S)).
	if mean > 0.05 {
		t.Errorf("mean |off-diagonal| %v too large for unrelated individuals", mean)
	}
}

func TestRelativesShowKinship(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Force individual 1 to be the child of individual 0.
	g := Simulate(rng, 2, 8000, 1.0)
	m, _ := Compute(g, 32, 1)
	kinship := m[1] // G[0][1]
	// Parent-child kinship in GRM terms is ~0.5.
	if kinship < 0.3 || kinship > 0.7 {
		t.Errorf("parent-child relatedness %v, want ~0.5", kinship)
	}
}

func TestBlockSizesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := Simulate(rng, 25, 300, 0.1)
	a, _ := Compute(g, 4, 1)
	b, _ := Compute(g, 64, 3)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("block size changed result at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunKernelCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := Simulate(rng, 20, 100, 0)
	res := must(RunKernelCtx(context.Background(), g, 16, 2))
	if res.FLOPs == 0 || res.Counters.Total() == 0 {
		t.Error("kernel did not count work")
	}
	fr := res.Counters.Fractions()
	// grm must be overwhelmingly vector/FP: the paper's most regular kernel.
	if fr[2] < 0.5 { // VecOp index
		t.Errorf("vector fraction %v too low for grm", fr[2])
	}
}

func TestSimulateGenotypeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := Simulate(rng, 10, 100, 0.5)
	for _, c := range g.Counts {
		if c > 2 {
			t.Fatalf("genotype count %d out of range", c)
		}
	}
	for _, p := range g.Freqs {
		if p < 0.05 || p > 0.95 {
			t.Fatalf("allele frequency %v out of range", p)
		}
	}
}

func TestComputeNaiveMatchesBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := Simulate(rng, 23, 150, 0.2)
	blocked, _ := Compute(g, 8, 2)
	naive := ComputeNaive(g)
	for i := range naive {
		if math.Abs(blocked[i]-naive[i]) > 1e-9 {
			t.Fatalf("element %d: blocked %v, naive %v", i, blocked[i], naive[i])
		}
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
