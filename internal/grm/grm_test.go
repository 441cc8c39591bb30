package grm

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cpufeat"
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
	got, flops := compute(g, 8, 2)
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
	m, _ := compute(g, 16, 4)
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
	m, _ := compute(g, 32, 2)
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
	m, _ := compute(g, 32, 2)
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
	m, _ := compute(g, 32, 1)
	kinship := m[1] // G[0][1]
	// Parent-child kinship in GRM terms is ~0.5.
	if kinship < 0.3 || kinship > 0.7 {
		t.Errorf("parent-child relatedness %v, want ~0.5", kinship)
	}
}

func TestBlockSizesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := Simulate(rng, 25, 300, 0.1)
	a, _ := compute(g, 4, 1)
	b, _ := compute(g, 64, 3)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("block size changed result at %d: %v vs %v", i, a[i], b[i])
		}
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
	blocked, _ := compute(g, 8, 2)
	naive := ComputeNaive(g)
	for i := range naive {
		if math.Abs(blocked[i]-naive[i]) > 1e-9 {
			t.Fatalf("element %d: blocked %v, naive %v", i, blocked[i], naive[i])
		}
	}
}

// compute builds g's matrix through Blocks, its blocks run by threads
// goroutines that each claim the next block, as a task loop does; it
// returns the matrix and the summed multiply-accumulates.
func compute(g *Genotypes, blockSize, threads int) ([]float64, uint64) {
	b := NewBlocks(g, blockSize)
	var next atomic.Int64
	var macs atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < b.Len(); k = int(next.Add(1)) - 1 {
				_, _, m := b.Compute(k)
				macs.Add(m)
			}
		}()
	}
	wg.Wait()
	return b.Matrix, macs.Load()
}

// forEachTier runs f once with the SIMD ceiling forced to "off" (the
// portable tile) and once forced to "avx2" (the assembly tile),
// skipping the second when the host has no AVX2 to force.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range []string{"off", "avx2"} {
		t.Run(tier, func(t *testing.T) {
			restore := cpufeat.ForceForTest(tier)
			defer restore()
			if tier == "avx2" && !(haveTileAsm && cpufeat.AVX2()) {
				t.Skip("no AVX2 on this host")
			}
			f(t)
		})
	}
}

// TestComputeDifferential is the bit-exact form of
// TestComputeMatchesNaive: at block sizes on and off the register
// tile's grid, at 1, 2 and 4 threads, and at N on and off a multiple
// of the tile, every entry of both triangles equals ComputeNaive's
// one-at-a-time dot product to the last bit, on both tiers.
func TestComputeDifferential(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(10))
		for _, n := range []int{1, 3, 8, 13, 37, 64} {
			for _, s := range []int{0, 1, 7, 250} {
				g := Simulate(rng, n, s, 0.2)
				want := ComputeNaive(g)
				wantFlops := uint64(n*(n+1)/2) * uint64(s)
				for _, bs := range []int{1, 7, 8, 64} {
					for _, threads := range []int{1, 2, 4} {
						got, flops := compute(g, bs, threads)
						if flops != wantFlops {
							t.Fatalf("N=%d S=%d block=%d threads=%d: flops %d, want %d", n, s, bs, threads, flops, wantFlops)
						}
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(got[i] != got[i] && want[i] != want[i]) {
								t.Fatalf("N=%d S=%d block=%d threads=%d: G[%d][%d] = %x, want %x",
									n, s, bs, threads, i/n, i%n, math.Float64bits(got[i]), math.Float64bits(want[i]))
							}
						}
					}
				}
			}
		}
	})
}

// A site everyone is homozygous at (p of 0 or 1) has no variance to
// standardize by; it used to put Inf or NaN into every entry of G.
// It must contribute exactly nothing, so the matrix equals the one
// computed without the site, rescaled by the site count.
func TestMonomorphicSiteContributesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := Simulate(rng, 9, 40, 0.2)
	without, _ := compute(g, 4, 2)

	withMono := &Genotypes{N: g.N, S: g.S + 3, Counts: make([]uint8, g.N*(g.S+3))}
	withMono.Freqs = append(append([]float64{}, g.Freqs...), 0, 1, math.NaN())
	for i := 0; i < g.N; i++ {
		row := withMono.Counts[i*withMono.S:]
		copy(row, g.Counts[i*g.S:(i+1)*g.S])
		row[g.S+1] = 2 // fixed for the alternative allele
		row[g.S+2] = uint8(i % 3)
	}
	for _, z := range withMono.Standardize() {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			t.Fatalf("Standardize produced %v", z)
		}
	}
	got, _ := compute(withMono, 4, 2)
	naive := ComputeNaive(withMono)
	for i := range got {
		want := without[i] * float64(g.S) / float64(withMono.S)
		if math.IsNaN(got[i]) || math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("G[%d][%d] = %v, want %v", i/g.N, i%g.N, got[i], want)
		}
		if got[i] != naive[i] {
			t.Fatalf("G[%d][%d]: blocked %v, naive %v", i/g.N, i%g.N, got[i], naive[i])
		}
	}
}

// NewBlocks allocates the plan, the panel and output matrices, the
// per-site scales and the block list (6), and Compute allocates
// nothing: the count must not depend on how many blocks or tiles the
// problem has.
func TestComputeAllocsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	allocs := func(n int) float64 {
		g := Simulate(rng, n, 20, 0)
		return testing.AllocsPerRun(5, func() {
			b := NewBlocks(g, 8)
			for k := range b.Len() {
				b.Compute(k)
			}
		})
	}
	small, large := allocs(8), allocs(96)
	if small != large {
		t.Errorf("allocs grow with N: %v at N=8, %v at N=96", small, large)
	}
	if large > 6 {
		t.Errorf("%v allocs per matrix, want <= 6", large)
	}
}

// The kernel at benchmark scale: portable tile vs the dispatched one.
func BenchmarkGRMTile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := Simulate(rng, 320, 12000, 0.1)
	for _, tier := range []string{"portable", "dispatched"} {
		b.Run(tier, func(b *testing.B) {
			if tier == "portable" {
				defer cpufeat.ForceForTest("off")()
			}
			var macs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, macs = compute(g, 64, 1)
			}
			b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds(), "MACs/s")
		})
	}
}
