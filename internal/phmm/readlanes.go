package phmm

// Read-lane PairHMM forward pass: the exact counterpart of the
// haplotype lanes in lanes.go. Every haplotype outside a full group of
// eight — all of them in a region with fewer than eight, the |H| mod 8
// tail otherwise — is run against up to eight READS in one
// struct-of-arrays sweep: lane l of column j holds read l's state at
// haplotype position j, one ymm (32 bytes) per column. The same sweep
// in float64, four reads per column, is the region path's float64
// redo (settleFallbacks).
//
// Numerics: per lane the sweep evaluates forwardInto's own expressions
// in forwardInto's order,
//
//	M = prior·((tMM·pM + tIM·pI) + tDM·pD)
//	I = tMI·pM + tII·pI
//	D = tMD·cM + tDD·cD
//
// every product and sum rounded on its own (explicit conversions, so no
// FMA on any architecture) and, in float32, each state flushed below
// flushFloor32 where forwardInto flushes it. There is no factoring and
// no premultiplied prior, so each lane's sum is bit-identical to
// forwardInto's for its pair in the same precision — and so are the
// likelihood, the float64-redo decision, BestHap and the counters.
//
// Priors: readGroup.prior holds, per read row, four ymm-sized vectors
// indexed by haplotype base: lane l of entry b is read l's match prior
// where its base at that row equals b, its mismatch prior elsewhere.
// One vector load per column replaces the scalar per-cell compare.
// Lanes past their read's end, and the empty lanes of a short group,
// get prior 0: their M is +0 from then on and their I and D decay
// toward +0. No lane reads those values: each lane's sum is taken at
// its own last row.
//
// Rows advance in pairs like forwardLanes': row i from prev into cur,
// then row i+1 from cur over prev. On amd64 hosts with AVX2 the pair is
// one assembly sweep (readrow_amd64.s, readrow64_amd64.s) with row i+1
// one column behind row i, so the two serial D chains overlap; an odd
// group's first row runs alone through the portable body. The portable
// readRowQuad sweeps below are the reference the assembly is tested
// against, the path GBENCH_SIMD=off selects, and the production path on
// every other architecture.

import (
	"unsafe"

	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/lanes"
	"repro/internal/scratch"
)

// laneCount is the number of F lanes in one 32-byte column: eight
// float32 reads, four float64.
func laneCount[F Float]() int {
	var f F
	return 32 / int(unsafe.Sizeof(f))
}

// laneFloor is F's flush floor, what forwardInto is passed: flushFloor32
// for the float32 pass, 0 — never — for the float64 redo.
func laneFloor[F Float]() F {
	var f F
	if unsafe.Sizeof(f) == 4 {
		return flushFloor32
	}
	return 0
}

// readGroup is up to laneCount[F]() reads laid out for the read-lane
// sweep: built once per read group and reused against every haplotype.
type readGroup[F Float] struct {
	maxM int              // longest read in the group
	lens [lanes.Width]int // per-lane read lengths; 0 for an empty lane
	// prior[(i-1)*4*w + b*w + l], w = laneCount[F](), is lane l's
	// emission prior at read row i against haplotype base b: read l's
	// match prior where its base i equals b, its mismatch prior
	// elsewhere, and 0 once i is past its end.
	prior []F
}

// prepareReads lays out reads (at most laneCount[F]() of them) and
// their base qualities in g, reusing g's storage.
func prepareReads[F Float](reads []genome.Seq, quals [][]byte, g *readGroup[F]) {
	w := laneCount[F]()
	g.maxM = 0
	g.lens = [lanes.Width]int{}
	for l, read := range reads {
		g.lens[l] = len(read)
		g.maxM = max(g.maxM, len(read))
	}
	g.prior = scratch.Grow(g.prior, g.maxM*4*w)
	clear(g.prior)
	for l, read := range reads {
		for i, b := range read {
			// forwardInto's priors: the same float64 error, rounded once.
			err := qualToErr[quals[l][i]]
			row := g.prior[i*4*w : (i+1)*4*w]
			for c := l; c < len(row); c += w {
				row[c] = F(err / 3)
			}
			row[int(b&3)*w+l] = F(1 - err)
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

// forwardReads runs the forward recurrence in precision F of every
// read of g against hap, from forwardInto's initial D mass
// scale/len(hap), and returns lane l's raw sum: the M and I mass of row
// lens[l] over ascending j, forwardInto's free end. Empty lanes return
// 0; cells are counted by the caller.
//
// Rows step in pairs (readRowPair): row i from prev into cur, then row
// i+1 from cur over prev, so after every pair the newest row is in prev
// again and the one before it in cur; an odd group's first row runs
// alone through the portable body first. Either way each row lands in
// the buffer forwardInto would put it in, so for a lane whose read is
// the group's longest the six rows end holding forwardInto's six rows
// for its pair. The tier is asked for once per call.
func forwardReads[F Float](g *readGroup[F], hap genome.Seq, scale float64, rows *[6][]F) [lanes.Width]F {
	var sums [lanes.Width]F
	n := len(hap)
	if g.maxM == 0 || n == 0 {
		return sums
	}
	w := laneCount[F]()
	for k := range rows {
		rows[k] = scratch.Grow(rows[k], (n+1)*w)
	}
	cur, prev := (*[3][]F)(rows[:3]), (*[3][]F)(rows[3:])
	clear(prev[0])
	clear(prev[1])
	// Free start anywhere on the haplotype: D row 0 carries the scaled
	// initial mass in every lane.
	init := F(scale / float64(n))
	for o := range prev[2] {
		prev[2][o] = init
	}
	wide := haveRowAsm && cpufeat.AVX2()
	tab := 4 * w // one row's prior table
	i := 1
	if g.maxM%2 == 1 {
		readRowLanes(g.prior[:tab], hap, prev, cur)
		prev, cur = cur, prev
		sumEnds(g, 1, prev, n, &sums)
		i = 2
	}
	for ; i < g.maxM; i += 2 {
		readRowPair(wide, g.prior[(i-1)*tab:(i+1)*tab], hap, prev, cur)
		sumEnds(g, i, cur, n, &sums)
		sumEnds(g, i+1, prev, n, &sums)
	}
	return sums
}

// sumEnds writes into sums the free-end sum of row i — M plus I over
// columns 1..n, ascending, forwardInto's order — for every lane whose
// read ends on row i.
func sumEnds[F Float](g *readGroup[F], i int, row *[3][]F, n int, sums *[lanes.Width]F) {
	w := laneCount[F]()
	for l := 0; l < w; l++ {
		if g.lens[l] != i {
			continue
		}
		var sum F
		for o := w + l; o <= n*w+l; o += w {
			sum += row[0][o] + row[1][o]
		}
		sums[l] = sum
	}
}

// readRowPair advances all lanes by two read rows: the first from prev
// into cur, the second from cur over prev, with tab the two rows' prior
// tables. Column 0 of each row is zeroed and columns 1..len(hap) are
// filled. wide selects the AVX2 kernel, which computes the second row
// one column behind the first: by the time it overwrites column k-1 of
// prev, the first row has read it for the last time. Otherwise it is
// two portable rows.
func readRowPair[F Float](wide bool, tab []F, hap genome.Seq, prev, cur *[3][]F) {
	w := laneCount[F]()
	if !wide {
		readRowLanes(tab[:4*w], hap, prev, cur)
		readRowLanes(tab[4*w:], hap, cur, prev)
		return
	}
	// The assembly runs unchecked: every row must cover columns 0..n and
	// the tables both rows' four bases.
	end := (len(hap)+1)*w - 1
	_, _, _, _, _, _ = prev[0][end], prev[1][end], prev[2][end], cur[0][end], cur[1][end], cur[2][end]
	_ = tab[8*w-1]
	readRowPairAVX2(tab, hap, prev, cur)
}

// readRowLanes advances all lanes by one read row on the portable body:
// column 0 of cur is zeroed and columns 1..len(hap) are filled from
// prev, one readRowQuad sweep per four lanes.
func readRowLanes[F Float](tab []F, hap genome.Seq, prev, cur *[3][]F) {
	// The sweeps run unchecked: every row must cover columns 0..n and
	// the table all four bases.
	w := laneCount[F]()
	end := (len(hap)+1)*w - 1
	_, _, _, _, _, _ = prev[0][end], prev[1][end], prev[2][end], cur[0][end], cur[1][end], cur[2][end]
	_ = tab[4*w-1]
	for base := 0; base < w; base += 4 {
		readRowQuad(&tab[0], hap, &prev[0][0], &prev[1][0], &prev[2][0], &cur[0][0], &cur[1][0], &cur[2][0], base)
	}
}

// quad is four lanes of F, readRowQuad's unit of work: lanes.Quad's
// shape in either precision.
type quad[F Float] struct{ A, B, C, D F }

// load4 and store4 are unchecked four-lane accesses at p[i..i+4), like
// lanes.Load4U/Store4U: the caller owns the proof that i+4 <= len(row).
func load4[F Float](p *F, i int) quad[F] {
	q := (*[4]F)(unsafe.Add(unsafe.Pointer(p), uintptr(i)*unsafe.Sizeof(*p)))
	return quad[F]{q[0], q[1], q[2], q[3]}
}

func store4[F Float](p *F, i int, q quad[F]) {
	d := (*[4]F)(unsafe.Add(unsafe.Pointer(p), uintptr(i)*unsafe.Sizeof(*p)))
	d[0], d[1], d[2], d[3] = q.A, q.B, q.C, q.D
}

// scaleAdd2 is a*s + b*t per lane with each product rounded on its own
// (lanes.Quad.ScaleAdd2's contract).
func (a quad[F]) scaleAdd2(s F, b quad[F], t F) quad[F] {
	return quad[F]{
		F(a.A*s) + F(b.A*t),
		F(a.B*s) + F(b.B*t),
		F(a.C*s) + F(b.C*t),
		F(a.D*s) + F(b.D*t),
	}
}

// flush replaces every lane of q below floor with +0, forwardInto's
// `if v < floor { v = 0 }`.
func (q quad[F]) flush(floor F) quad[F] {
	if q.A < floor {
		q.A = 0
	}
	if q.B < floor {
		q.B = 0
	}
	if q.C < floor {
		q.C = 0
	}
	if q.D < floor {
		q.D = 0
	}
	return q
}

// readRowQuad advances lanes [base, base+4) of one read row:
// forwardInto's inner loop on four reads at once, one column per step.
// Only the D chain's lastM and lastD are carried; every product goes
// through an explicit conversion, as in forwardInto, so no compiler may
// fuse it into an FMA, and each state is flushed at F's floor before it
// is stored or feeds the chain. Row accesses are unchecked:
// readRowLanes proved the bounds.
func readRowQuad[F Float](tab *F, hap genome.Seq, pPM, pPI, pPD, pCM, pCI, pCD *F, base int) {
	w := laneCount[F]()
	floor := laneFloor[F]()
	tmm, tim, tdm := F(tMM), F(tIM), F(tDM)
	tmi, tii := F(tMI), F(tII)
	tmd, tdd := F(tMD), F(tDD)
	var zero, lastM, lastD quad[F]
	store4(pCM, base, zero)
	store4(pCI, base, zero)
	store4(pCD, base, zero)
	o := base // column j-1
	for _, b := range hap {
		prior := load4(tab, int(b&3)*w+base)
		pM := load4(pPM, o)
		pI := load4(pPI, o)
		pD := load4(pPD, o)
		o += w
		lastD = lastM.scaleAdd2(tmd, lastD, tdd).flush(floor)
		lastM = quad[F]{
			A: F(prior.A * (F(tmm*pM.A) + F(tim*pI.A) + F(tdm*pD.A))),
			B: F(prior.B * (F(tmm*pM.B) + F(tim*pI.B) + F(tdm*pD.B))),
			C: F(prior.C * (F(tmm*pM.C) + F(tim*pI.C) + F(tdm*pD.C))),
			D: F(prior.D * (F(tmm*pM.D) + F(tim*pI.D) + F(tdm*pD.D))),
		}.flush(floor)
		ij := load4(pPM, o).scaleAdd2(tmi, load4(pPI, o), tii).flush(floor)
		store4(pCM, o, lastM)
		store4(pCI, o, ij)
		store4(pCD, o, lastD)
	}
}
