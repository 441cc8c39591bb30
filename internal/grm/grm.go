// Package grm implements the genomic relationship matrix kernel from
// PLINK2: G[i][j] = (1/S) * sum_s (x_is - 2p_s)(x_js - 2p_s) /
// (2 p_s (1-p_s)) over S SNV markers for N individuals — a dense
// standardized matrix product G = Z·Zᵀ/S, computed with cache blocking
// and parallelized over output tiles. It is the suite's regular-compute
// kernel (87.7% retiring pipeline slots in the paper's Figure 9).
package grm

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/perf"
)

// Genotypes holds the SNV matrix: Counts[i*S+s] is the number of
// non-reference alleles (0, 1 or 2) individual i carries at site s.
type Genotypes struct {
	N, S   int
	Counts []uint8
	Freqs  []float64 // p_s: population allele frequency per site
}

// Simulate draws a genotype matrix for n individuals over s sites.
// Site frequencies are uniform in [0.05, 0.95]; genotypes are binomial.
// A fraction of individuals are generated as relatives (copying half of
// another individual's genotype) so the matrix has off-diagonal
// structure worth measuring.
func Simulate(rng *rand.Rand, n, s int, relatedFraction float64) *Genotypes {
	g := &Genotypes{
		N:      n,
		S:      s,
		Counts: make([]uint8, n*s),
		Freqs:  make([]float64, s),
	}
	for site := 0; site < s; site++ {
		g.Freqs[site] = 0.05 + 0.9*rng.Float64()
	}
	for i := 0; i < n; i++ {
		if i > 0 && rng.Float64() < relatedFraction {
			// Child of individual i-1: inherit one allele per site.
			parent := i - 1
			for site := 0; site < s; site++ {
				p := g.Freqs[site]
				inherited := uint8(0)
				if pc := g.Counts[parent*s+site]; pc == 2 || (pc == 1 && rng.Intn(2) == 0) {
					inherited = 1
				}
				other := uint8(0)
				if rng.Float64() < p {
					other = 1
				}
				g.Counts[i*s+site] = inherited + other
			}
			continue
		}
		for site := 0; site < s; site++ {
			p := g.Freqs[site]
			c := uint8(0)
			if rng.Float64() < p {
				c++
			}
			if rng.Float64() < p {
				c++
			}
			g.Counts[i*s+site] = c
		}
	}
	return g
}

// Standardize converts genotypes to the Z matrix (N x S, row-major
// float64): z = (x - 2p) / sqrt(2p(1-p)).
func (g *Genotypes) Standardize() []float64 {
	z := make([]float64, g.N*g.S)
	inv := make([]float64, g.S)
	mean := make([]float64, g.S)
	for s := 0; s < g.S; s++ {
		p := g.Freqs[s]
		mean[s] = 2 * p
		inv[s] = 1 / math.Sqrt(2*p*(1-p))
	}
	for i := 0; i < g.N; i++ {
		row := z[i*g.S : (i+1)*g.S]
		counts := g.Counts[i*g.S : (i+1)*g.S]
		for s := range row {
			row[s] = (float64(counts[s]) - mean[s]) * inv[s]
		}
	}
	return z
}

// Compute builds the N x N relationship matrix with tile blocking.
// The result is symmetric; both triangles are filled.
// It panics on failure; cancellable callers use ComputeCtx.
func Compute(g *Genotypes, blockSize, threads int) ([]float64, uint64) {
	out, flops, err := ComputeCtx(context.Background(), g, blockSize, threads)
	if err != nil {
		panic(err)
	}
	return out, flops
}

// ComputeCtx is Compute with cooperative cancellation and a fault
// trip-point per tile.
func ComputeCtx(ctx context.Context, g *Genotypes, blockSize, threads int) ([]float64, uint64, error) {
	if blockSize <= 0 {
		blockSize = 64
	}
	z := g.Standardize()
	n, s := g.N, g.S
	out := make([]float64, n*n)
	nBlocks := (n + blockSize - 1) / blockSize
	// Upper-triangle tiles as independent tasks.
	type tile struct{ bi, bj int }
	var tiles []tile
	for bi := 0; bi < nBlocks; bi++ {
		for bj := bi; bj < nBlocks; bj++ {
			tiles = append(tiles, tile{bi, bj})
		}
	}
	var flops uint64
	flopsPer := make([]uint64, threadCount(threads))
	err := parallel.ForEachCtxErr(ctx, len(tiles), threads, func(tctx context.Context, w, ti int) error {
		if err := faultinject.Point(tctx); err != nil {
			return err
		}
		t := tiles[ti]
		i0, i1 := t.bi*blockSize, min(n, (t.bi+1)*blockSize)
		j0, j1 := t.bj*blockSize, min(n, (t.bj+1)*blockSize)
		var local uint64
		for i := i0; i < i1; i++ {
			zi := z[i*s : (i+1)*s]
			jStart := j0
			if t.bi == t.bj && j0 < i {
				jStart = i
			}
			for j := jStart; j < j1; j++ {
				zj := z[j*s : (j+1)*s]
				var acc float64
				for k := 0; k < s; k++ {
					acc += zi[k] * zj[k]
				}
				v := acc / float64(s)
				out[i*n+j] = v
				out[j*n+i] = v
				local += uint64(s)
			}
		}
		flopsPer[w] += local
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	for _, f := range flopsPer {
		flops += f
	}
	return out, flops, nil
}

// ComputeNaive is the unblocked O(N^2 S) baseline, provided for the
// blocking ablation; production use should call Compute.
func ComputeNaive(g *Genotypes) []float64 {
	z := g.Standardize()
	n, s := g.N, g.S
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		zi := z[i*s : (i+1)*s]
		for j := 0; j < n; j++ {
			zj := z[j*s : (j+1)*s]
			var acc float64
			for k := 0; k < s; k++ {
				acc += zi[k] * zj[k]
			}
			out[i*n+j] = acc / float64(s)
		}
	}
	return out
}

func threadCount(threads int) int {
	if threads <= 0 {
		return 1
	}
	return threads
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// KernelResult aggregates a grm benchmark execution.
type KernelResult struct {
	N, S     int
	FLOPs    uint64
	Matrix   []float64
	Counters perf.Counters
}

// RunKernelCtx computes the GRM and records its (very regular) op mix,
// under cooperative cancellation and with fault trip-points inside the
// tile loop.
func RunKernelCtx(ctx context.Context, g *Genotypes, blockSize, threads int) (KernelResult, error) {
	m, flops, err := ComputeCtx(ctx, g, blockSize, threads)
	if err != nil {
		return KernelResult{}, err
	}
	res := KernelResult{N: g.N, S: g.S, FLOPs: flops, Matrix: m}
	// Dense FMA-dominated multiply: mostly vector FP with streaming
	// loads (high retiring fraction, near-zero branches).
	res.Counters.Add(perf.VecOp, flops)
	res.Counters.Add(perf.FloatOp, flops/4)
	res.Counters.Add(perf.Load, flops/4)
	res.Counters.Add(perf.Store, uint64(g.N)*uint64(g.N)/8)
	res.Counters.Add(perf.Branch, flops/64)
	return res, nil
}
