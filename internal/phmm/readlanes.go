package phmm

// Read-lane PairHMM forward pass: the exact counterpart of the
// haplotype lanes in lanes.go. Every haplotype outside a full group of
// eight — all of them in a region with fewer than eight, the |H| mod 8
// tail otherwise — is run against up to eight READS in one
// struct-of-arrays sweep: lane l of column j holds read l's state at
// haplotype position j, one Lane8 per column.
//
// Numerics: per lane the sweep evaluates forwardInto's own expressions
// in forwardInto's order,
//
//	M = prior·((tMM·pM + tIM·pI) + tDM·pD)
//	I = tMI·pM + tII·pI
//	D = tMD·cM + tDD·cD
//
// every product and sum rounded on its own (explicit float32
// conversions, so no FMA on any architecture) and each state flushed
// below flushFloor32 where forwardInto flushes it. There is no
// factoring and no premultiplied prior, so each lane's float32 sum is
// bit-identical to forwardInto's for its pair — and so are the
// likelihood, the float64-redo decision, BestHap and the counters.
//
// Priors: readGroup.prior holds, per read row, four Lane8s indexed by
// haplotype base: lane l of entry b is read l's match prior where its
// base at that row equals b, its mismatch prior elsewhere. One Lane8
// load per column replaces the scalar per-cell compare. Lanes past
// their read's end, and the empty lanes of a short group, get prior 0:
// their M is +0 from then on and their I and D decay through the flush
// floor to +0. No lane reads those values: each lane's sum is taken at
// its own last row.
//
// On amd64 hosts with AVX2 each row is one assembly sweep
// (readrow_amd64.s); the portable readRowQuad sweeps below are the
// reference it is tested against, the path GBENCH_SIMD=off selects,
// and the production path on every other architecture.

import (
	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/lanes"
	"repro/internal/scratch"
)

// readRowFloats is one read row's prior table: a Lane8 per haplotype
// base.
const readRowFloats = 4 * lanes.Width

// readGroup is up to eight reads laid out for the read-lane sweep:
// built once per read group and reused against every haplotype.
type readGroup struct {
	maxM int              // longest read in the group
	lens [lanes.Width]int // per-lane read lengths; 0 for an empty lane
	// prior[(i-1)*readRowFloats + b*lanes.Width + l] is lane l's
	// emission prior at read row i against haplotype base b: read l's
	// match prior where its base i equals b, its mismatch prior
	// elsewhere, and 0 once i is past its end.
	prior []float32
}

// prepareReads lays out reads (at most lanes.Width of them) and their
// base qualities in g, reusing g's storage.
func prepareReads(reads []genome.Seq, quals [][]byte, g *readGroup) {
	g.maxM = 0
	g.lens = [lanes.Width]int{}
	for l, read := range reads {
		g.lens[l] = len(read)
		g.maxM = max(g.maxM, len(read))
	}
	g.prior = scratch.Grow(g.prior, g.maxM*readRowFloats)
	clear(g.prior)
	for l, read := range reads {
		for i, b := range read {
			// forwardInto's priors: the same float64 error, rounded once.
			err := qualToErr[quals[l][i]]
			row := g.prior[i*readRowFloats : (i+1)*readRowFloats]
			for c := l; c < readRowFloats; c += lanes.Width {
				row[c] = float32(err / 3)
			}
			row[int(b&3)*lanes.Width+l] = float32(1 - err)
		}
	}
}

// evaluateReadLanes settles every pair of haplotypes [h0, |H|) in res:
// reads in groups of eight, one read-lane pass per group and
// haplotype.
func evaluateReadLanes(rg *Region, h0 int, s *Scratch, res *RegionResult) {
	nr, nh := len(rg.Reads), len(rg.Haps)
	if h0 == nh {
		return
	}
	for r0 := 0; r0 < nr; r0 += lanes.Width {
		r1 := min(r0+lanes.Width, nr)
		prepareReads(rg.Reads[r0:r1], rg.Quals[r0:r1], &s.reads)
		for h := h0; h < nh; h++ {
			sums := forwardReads(&s.reads, rg.Haps[h], initialScale32, &s.laneRows)
			for r := r0; r < r1; r++ {
				settlePair(rg, r, h, sums[r-r0], s, res)
			}
		}
	}
}

// forwardReads runs the float32 forward recurrence of every read of g
// against hap, from forwardInto's initial D mass scale/len(hap), and
// returns lane l's raw sum: the M and I mass of row lens[l] over
// ascending j, forwardInto's free end. Empty lanes return 0; cells are
// counted by the caller (settlePair).
//
// The rows step like forwardInto's: each read row is swept from prev
// into cur, then the two swap. So for a lane whose read is the group's
// longest, the six rows end holding forwardInto's six rows for its
// pair. The tier is asked for once per call.
func forwardReads(g *readGroup, hap genome.Seq, scale float64, rows *[6][]float32) [lanes.Width]float32 {
	var sums [lanes.Width]float32
	n := len(hap)
	if g.maxM == 0 || n == 0 {
		return sums
	}
	w := (n + 1) * lanes.Width
	for k := range rows {
		rows[k] = scratch.Grow(rows[k], w)
	}
	cur, prev := (*[3][]float32)(rows[:3]), (*[3][]float32)(rows[3:])
	clear(prev[0])
	clear(prev[1])
	// Free start anywhere on the haplotype: D row 0 carries the scaled
	// initial mass in every lane.
	init := float32(scale / float64(n))
	for o := range prev[2] {
		prev[2][o] = init
	}
	wide := haveRowAsm && cpufeat.AVX2()
	for i := 1; i <= g.maxM; i++ {
		readRow(wide, g.prior[(i-1)*readRowFloats:i*readRowFloats], hap, prev, cur)
		prev, cur = cur, prev
		var ends uint8
		for l, m := range g.lens {
			if m == i {
				ends |= 1 << l
			}
		}
		if ends != 0 {
			sumEnds(prev, n, ends, &sums)
		}
	}
	return sums
}

// sumEnds writes into sums the free-end sum of row — M plus I over
// columns 1..n, ascending, forwardInto's order — for every lane in
// ends.
func sumEnds(row *[3][]float32, n int, ends uint8, sums *[lanes.Width]float32) {
	var lo, hi lanes.Quad
	for j := 1; j <= n; j++ {
		o := j * lanes.Width
		lo = lo.Add(lanes.Load4(row[0], o).Add(lanes.Load4(row[1], o)))
		hi = hi.Add(lanes.Load4(row[0], o+4).Add(lanes.Load4(row[1], o+4)))
	}
	all := lanes.Lane8{Lo: lo, Hi: hi}.Array()
	for l := range sums {
		if ends>>l&1 != 0 {
			sums[l] = all[l]
		}
	}
}

// readRow advances all eight lanes by one read row: column 0 of cur is
// zeroed and columns 1..len(hap) are filled from prev, with tab the
// row's prior table. wide selects the AVX2 kernel; otherwise it is two
// readRowQuad sweeps.
func readRow(wide bool, tab []float32, hap genome.Seq, prev, cur *[3][]float32) {
	// Both bodies run unchecked: every row must cover columns 0..n and
	// the table all four bases.
	n := len(hap)
	w := (n+1)*lanes.Width - 1
	_, _, _, _, _, _ = prev[0][w], prev[1][w], prev[2][w], cur[0][w], cur[1][w], cur[2][w]
	_ = tab[readRowFloats-1]
	if wide {
		readRowAVX2(tab, hap, prev, cur)
		return
	}
	readRowLanes(tab, hap, prev, cur)
}

// readRowLanes is readRow's portable body: one readRowQuad sweep per
// Quad.
func readRowLanes(tab []float32, hap genome.Seq, prev, cur *[3][]float32) {
	for base := 0; base < lanes.Width; base += 4 {
		readRowQuad(&tab[0], hap, &prev[0][0], &prev[1][0], &prev[2][0], &cur[0][0], &cur[1][0], &cur[2][0], base)
	}
}

// readRowQuad advances lanes [base, base+4) of one read row: forwardInto's
// inner loop on four reads at once, one column per step. Only the D
// chain's lastM and lastD are carried; every product goes through an
// explicit float32 conversion, as in forwardInto, so no compiler may
// fuse it into an FMA, and each state is flushed (flush4) before it is
// stored or feeds the chain. Row accesses are unchecked: readRow
// proved the bounds.
func readRowQuad(tab *float32, hap genome.Seq, pPM, pPI, pPD, pCM, pCI, pCD *float32, base int) {
	tmm, tim, tdm := tmm32, tim32, tdm32
	tmi, tii := tmi32, tii32
	tmd, tdd := tmd32, tdd32
	var zero, lastM, lastD lanes.Quad
	lanes.Store4U(pCM, base, zero)
	lanes.Store4U(pCI, base, zero)
	lanes.Store4U(pCD, base, zero)
	o := base // column j-1
	for _, b := range hap {
		prior := lanes.Load4U(tab, int(b&3)*lanes.Width+base)
		pM := lanes.Load4U(pPM, o)
		pI := lanes.Load4U(pPI, o)
		pD := lanes.Load4U(pPD, o)
		o += lanes.Width
		lastD = flush4(lastM.ScaleAdd2(tmd, lastD, tdd))
		lastM = flush4(lanes.Quad{
			A: float32(prior.A * (float32(tmm*pM.A) + float32(tim*pI.A) + float32(tdm*pD.A))),
			B: float32(prior.B * (float32(tmm*pM.B) + float32(tim*pI.B) + float32(tdm*pD.B))),
			C: float32(prior.C * (float32(tmm*pM.C) + float32(tim*pI.C) + float32(tdm*pD.C))),
			D: float32(prior.D * (float32(tmm*pM.D) + float32(tim*pI.D) + float32(tdm*pD.D))),
		})
		ij := flush4(lanes.Load4U(pPM, o).ScaleAdd2(tmi, lanes.Load4U(pPI, o), tii))
		lanes.Store4U(pCM, o, lastM)
		lanes.Store4U(pCI, o, ij)
		lanes.Store4U(pCD, o, lastD)
	}
}
