// Package grm implements the genomic relationship matrix kernel from
// PLINK2: G[i][j] = (1/S) * sum_s (x_is - 2p_s)(x_js - 2p_s) /
// (2 p_s (1-p_s)) over S SNV markers for N individuals — a dense
// standardized matrix product G = Z·Zᵀ/S, computed with cache blocking
// in output blocks that are independent parallel tasks. It is the
// suite's regular-compute kernel (87.7% retiring pipeline slots in the
// paper's Figure 9).
package grm

import (
	"math"
	"math/rand"
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

// Blocks is the N x N relationship matrix split into its parallel
// tasks: blocks of size x size outputs in the upper triangle, each
// computed by Compute into Matrix, in any order and on any goroutine.
// Inside a block the work is done a register tile at a time (tile.go):
// tileRows x panelWidth dot products advance together down the sites,
// each with its own accumulator and its sites in ascending order, so
// every entry is bit-identical to ComputeNaive's one-at-a-time dot
// product whatever the block size, schedule or SIMD tier. Tiles sit on
// a fixed grid over the individuals; a block that is not aligned to it
// computes the tiles it touches in full and keeps its own entries.
type Blocks struct {
	N int // the matrix's order: Genotypes.N
	// Matrix is G, row-major; both triangles of a block's entries are
	// filled when its Compute returns.
	Matrix []float64
	s      int
	size   int
	zp     []float64 // standardizePanels' Z
	list   []block
}

type block struct{ bi, bj int }

// NewBlocks standardizes g and plans its matrix in blocks of
// blockSize x blockSize outputs.
func NewBlocks(g *Genotypes, blockSize int) *Blocks {
	n := g.N
	nb := (n + blockSize - 1) / blockSize
	b := &Blocks{
		N:      n,
		Matrix: make([]float64, n*n),
		s:      g.S,
		size:   blockSize,
		zp:     g.standardizePanels(),
		list:   make([]block, 0, nb*(nb+1)/2),
	}
	for bi := 0; bi < nb; bi++ {
		for bj := bi; bj < nb; bj++ {
			b.list = append(b.list, block{bi, bj})
		}
	}
	return b
}

// Len returns the number of blocks.
func (b *Blocks) Len() int { return len(b.list) }

// Compute fills block k: Matrix's entries in rows [rows[0], rows[1])
// and columns [cols[0], cols[1]), and their mirror. macs counts one
// multiply-accumulate per site per entry on or above the diagonal,
// however the tiles covered them.
func (b *Blocks) Compute(k int) (rows, cols [2]int, macs uint64) {
	n, s, zp, out := b.N, b.s, b.zp, b.Matrix
	bk := b.list[k]
	i0, i1 := bk.bi*b.size, min(n, (bk.bi+1)*b.size)
	j0, j1 := bk.bj*b.size, min(n, (bk.bj+1)*b.size)
	panel := s * panelWidth
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
	pairs := (i1 - i0) * (j1 - j0)
	if bk.bi == bk.bj {
		pairs = (i1 - i0) * (i1 - i0 + 1) / 2
	}
	return [2]int{i0, i1}, [2]int{j0, j1}, uint64(pairs) * uint64(s)
}

// ComputeNaive is the unblocked O(N^2 S) baseline — every entry its
// own dot product, one at a time — provided for the blocking ablation
// and as the reference Blocks must equal bit for bit; production use
// should compute Blocks.
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
