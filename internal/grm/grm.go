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

// siteScale returns each site's mean 2p and inverse standard deviation
// 1/sqrt(2p(1-p)). A site with no variance — p of 0 or 1, or a
// frequency that is not a probability at all — carries no information
// about relatedness and would otherwise put an Inf or NaN into every
// entry of G; it gets mean 0 and scale 0, so it standardizes to
// exactly 0 for everyone and contributes nothing (PLINK drops such
// sites).
func (g *Genotypes) siteScale() (mean, inv []float64) {
	mean = make([]float64, g.S)
	inv = make([]float64, g.S)
	for s, p := range g.Freqs[:g.S] {
		if v := 2 * p * (1 - p); v > 0 {
			mean[s] = 2 * p
			inv[s] = 1 / math.Sqrt(v)
		}
	}
	return mean, inv
}

// Standardize converts genotypes to the Z matrix (N x S, row-major
// float64): z = (x - 2p) / sqrt(2p(1-p)), and 0 at a site with no
// variance.
func (g *Genotypes) Standardize() []float64 {
	z := make([]float64, g.N*g.S)
	mean, inv := g.siteScale()
	for i := 0; i < g.N; i++ {
		row := z[i*g.S : (i+1)*g.S]
		counts := g.Counts[i*g.S : (i+1)*g.S]
		for s := range row {
			row[s] = (float64(counts[s]) - mean[s]) * inv[s]
		}
	}
	return z
}

// standardizePanels is Standardize written straight into the tile
// kernel's layout, with no row-major copy in between: individuals are
// grouped into panels of panelWidth, and a panel is site-major, so
// the panelWidth values of one site are contiguous —
// zp[(p*S+s)*panelWidth+l] is z of individual p*panelWidth+l at site
// s. The last panel is padded with zero rows.
func (g *Genotypes) standardizePanels() []float64 {
	n, S := g.N, g.S
	panels := (n + panelWidth - 1) / panelWidth
	zp := make([]float64, panels*S*panelWidth)
	mean, inv := g.siteScale()
	for p := 0; p < panels; p++ {
		first := p * panelWidth
		panel := zp[p*S*panelWidth : (p+1)*S*panelWidth]
		for l := 0; l < min(panelWidth, n-first); l++ {
			for s, c := range g.Counts[(first+l)*S : (first+l+1)*S] {
				panel[s*panelWidth+l] = (float64(c) - mean[s]) * inv[s]
			}
		}
	}
	return zp
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
// trip-point per block. Blocks of blockSize x blockSize outputs in the
// upper triangle are the parallel tasks; inside a block the work is
// done a register tile at a time (tile.go): tileRows x panelWidth
// dot products advance together down the sites, each with its own
// accumulator and its sites in ascending order, so every entry is
// bit-identical to ComputeNaive's one-at-a-time dot product whatever
// the block size, thread count or SIMD tier. Tiles sit on a fixed grid
// over the individuals; a block that is not aligned to it computes
// the tiles it touches in full and keeps its own entries.
func ComputeCtx(ctx context.Context, g *Genotypes, blockSize, threads int) ([]float64, uint64, error) {
	if blockSize <= 0 {
		blockSize = 64
	}
	zp := g.standardizePanels()
	n, s := g.N, g.S
	out := make([]float64, n*n)
	nBlocks := (n + blockSize - 1) / blockSize
	// Upper-triangle blocks as independent tasks.
	type block struct{ bi, bj int }
	blocks := make([]block, 0, nBlocks*(nBlocks+1)/2)
	for bi := 0; bi < nBlocks; bi++ {
		for bj := bi; bj < nBlocks; bj++ {
			blocks = append(blocks, block{bi, bj})
		}
	}
	panel := s * panelWidth
	blockFlops := make([]uint64, len(blocks))
	err := parallel.ForEachCtxErr(ctx, len(blocks), threads, func(tctx context.Context, w, ti int) error {
		if err := faultinject.Point(tctx); err != nil {
			return err
		}
		b := blocks[ti]
		i0, i1 := b.bi*blockSize, min(n, (b.bi+1)*blockSize)
		j0, j1 := b.bj*blockSize, min(n, (b.bj+1)*blockSize)
		var acc [tileRows * panelWidth]float64
		for jp := j0 / panelWidth; jp*panelWidth < j1; jp++ {
			zj := zp[jp*panel : (jp+1)*panel]
			for it := i0 / tileRows; it*tileRows < i1; it++ {
				ib := it * tileRows
				if jp*panelWidth+panelWidth <= ib {
					continue // wholly below the diagonal: the mirror covers it
				}
				ip := ib / panelWidth
				dotTile(zp[ip*panel:(ip+1)*panel], ib%panelWidth, zj, s, &acc)
				for r := max(ib, i0); r < min(ib+tileRows, i1); r++ {
					for c := max(jp*panelWidth, j0, r); c < min((jp+1)*panelWidth, j1); c++ {
						v := acc[(r-ib)*panelWidth+c-jp*panelWidth] / float64(s)
						out[r*n+c] = v
						out[c*n+r] = v
					}
				}
			}
		}
		// One multiply-accumulate per site per entry on or above the
		// diagonal, however the tiles covered them.
		pairs := (i1 - i0) * (j1 - j0)
		if b.bi == b.bj {
			pairs = (i1 - i0) * (i1 - i0 + 1) / 2
		}
		blockFlops[ti] = uint64(pairs) * uint64(s)
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var flops uint64
	for _, f := range blockFlops {
		flops += f
	}
	return out, flops, nil
}

// ComputeNaive is the unblocked O(N^2 S) baseline — every entry its
// own dot product, one at a time — provided for the blocking ablation
// and as the reference Compute must equal bit for bit; production use
// should call Compute.
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
				acc += float64(zi[k] * zj[k])
			}
			out[i*n+j] = acc / float64(s)
		}
	}
	return out
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
