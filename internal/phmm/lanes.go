package phmm

// Lane-batched PairHMM forward pass: instead of one scalar DP per
// (read, haplotype) pair, a read's haplotypes are grouped into lanes
// of eight and one struct-of-arrays pass advances all eight forward
// recurrences together — the inter-task vectorization GATK's AVX
// PairHMM uses, expressed with internal/lanes Lane8 vectors.
//
// Layout: the M/I/D DP rows become []lanes.Lane8, lane l of column j
// holding haplotype l's state at position j. Haplotypes in a group
// are ragged; the group DP runs to the LONGEST haplotype and each
// lane's likelihood is read off at its own length. Columns past a
// lane's end compute garbage that provably never flows back (the
// recurrence only reads columns <= j) and is never summed (the final
// row is masked per lane to [1, len(hap_l)]).
//
// Emission priors are gathered from the haplotypes through the
// internal/seq2 2-bit packing: each group precomputes, per reference
// base b and column j, an 8-bit mask of which lanes match b, so the
// scalar core's per-cell `hap[j-1] == rb` branch becomes a branch-free
// two-entry table select.
//
// Numerics: per-lane arithmetic follows the scalar expressions with
// two documented deviations — the M update factors the symmetric
// gap-continuation terms (tIM == tDM) and pre-multiplies the emission
// prior by the match transition, reassociating one addition and one
// multiplication per cell — so lane likelihoods agree with the scalar
// reference within laneTolerance rather than bit-for-bit (derivation
// at that constant). A consequence for the argmax: when two
// haplotypes' true likelihoods are closer than the tolerance (clones,
// or near-clones), BestHap may pick either of them; the differential
// tests pin BestHap exactly except on such near-ties. Every M/I/D
// value is flushed to +0 below flushFloor32 at the same point the
// scalar pass flushes it (package comment). Lanes whose float32 sum
// underflows fall back to the scalar float64 pass, exactly like the
// scalar path, and ragged group tails (|H| mod 8) use the scalar
// float32 path unchanged.
//
// On amd64 hosts with AVX2 the rows advance two at a time through an
// assembly kernel (row_amd64.s), bit-identical to the pure-Go quad
// sweeps — the portable path below is the reference it is tested
// against, the path GBENCH_SIMD=sse2|off select, and the production
// path on every other architecture. To keep amd64 and arm64 answers
// identical, rowQuad is written fusion-free: every multiply feeding an
// add goes through an explicit float32 conversion, which the Go spec
// forbids the compiler from fusing into a single-rounding FMA. The
// conversions are no-ops on amd64.

import (
	"math"

	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/lanes"
	"repro/internal/scratch"
	"repro/internal/seq2"
)

// laneTolerance is the documented bound on |lane - scalar| for one
// log10 likelihood. The lane M update computes pMd*(prior*tmm) +
// (pId+pDd)*(prior*tim) where the scalar reference computes
// prior*(tmm*pMd + tim*pId + tdm*pDd) (equal reals, different
// rounding): each cell perturbs the forward mass by at most a few
// float32 ulps relative (k·2^-24, k ≤ 3 reassociated roundings), and
// the perturbations compound across the read, giving |Δlog10| ≲
// 3m·2^-24/ln(10) ≈ 2e-5 for the longest supported reads (m ≈ 250).
// 1e-4 leaves almost an order of magnitude of slack over the
// estimate; the differential tests assert it on every workload.
//
// The flush floor adds an absolute term. Both paths flush at the same
// points, but a value within those few ulps of 2^-93 can be flushed by
// one and kept by the other, moving that path's sum by at most 2^-93
// per such cell (path weights are ≤ 1). The relative bound therefore
// holds for sums well above the floor — ≥ 1e-19 (log10 likelihood ≥
// -55) even if every one of the 3·m·n state values straddled — while
// a pair nearer the 1e-28 underflow test can in principle differ by
// more, or take the float64 redo on one path only, just as a sum
// within ulps of 1e-28 already could. The differential tests assert
// the tolerance and equal Fallbacks on every grid they run.
const laneTolerance = 1e-4

// float32 transition constants, the same values forwardInto uses for
// F = float32.
var (
	tmm32 = float32(tMM)
	tmi32 = float32(tMI)
	tmd32 = float32(tMD)
	tim32 = float32(tIM)
	tii32 = float32(tII)
	tdm32 = float32(tDM)
	tdd32 = float32(tDD)
)

// laneGroup is the precomputed per-group haplotype layout: built once
// per region and reused by every read's lane pass.
type laneGroup struct {
	maxN int              // longest haplotype in the group
	lens [lanes.Width]int // per-lane haplotype lengths
	init lanes.Lane8      // per-lane scaled initial D mass
	mask [4][]uint8       // mask[b][j]: lanes whose hap[j] == b
	live []uint8          // live[j]: lanes with j <= len(hap_l)
}

// prepareGroups packs the region's full lane groups into s, reusing
// storage from earlier calls. Returns the number of full groups.
func prepareGroups(haps []genome.Seq, s *Scratch) int {
	nGroups := len(haps) / lanes.Width
	s.groups = scratch.Grow(s.groups, nGroups)
	for g := 0; g < nGroups; g++ {
		grp := &s.groups[g]
		members := haps[g*lanes.Width : (g+1)*lanes.Width]
		grp.maxN = 0
		var initArr [lanes.Width]float32
		for l, hap := range members {
			grp.lens[l] = len(hap)
			if len(hap) > grp.maxN {
				grp.maxN = len(hap)
			}
			if len(hap) > 0 {
				initArr[l] = float32(initialScale32 / float64(len(hap)))
			}
			// 2-bit pack the haplotype (the seq2 hot-path idiom); the
			// packed words drive the column mask build below.
			s.packs[l] = seq2.PackInto(s.packs[l], hap).WordsSlice()
		}
		grp.init = lanes.FromArray(initArr)
		for b := 0; b < 4; b++ {
			grp.mask[b] = scratch.Grow(grp.mask[b], grp.maxN)
			clear(grp.mask[b])
		}
		grp.live = scratch.Grow(grp.live, grp.maxN+1)
		for j := 0; j <= grp.maxN; j++ {
			var lm uint8
			for l := 0; l < lanes.Width; l++ {
				if j <= grp.lens[l] {
					lm |= 1 << uint(l)
				}
			}
			grp.live[j] = lm
		}
		for l := 0; l < lanes.Width; l++ {
			p := seq2.FromWords(s.packs[l], grp.lens[l])
			bit := uint8(1) << uint(l)
			for j := 0; j < grp.lens[l]; j++ {
				grp.mask[p.Get(j)][j] |= bit
			}
		}
	}
	return nGroups
}

// forwardLanes runs the float32 forward recurrence for all eight
// haplotypes of grp against one read, returning the per-lane scaled
// likelihood sums. Cell accounting is done by the caller (lane l's
// semantic work is len(read) * lens[l] cells, identical to the scalar
// pass), keeping the kernel's work counters exact.
//
// Rows advance in pairs (rowPair): row i from prev into cur, then row
// i+1 from cur back over prev, so after every pair the newest row is
// in prev again. On the AVX2 tier one fused assembly sweep computes
// both rows, row i+1 one column behind row i, so the two serial D
// chains overlap; on every other tier the pair is four rowQuad sweeps.
// An odd read's first row runs alone, through the portable rowLanes on
// every tier. The tier is asked for once per call.
func forwardLanes(read genome.Seq, qual []byte, grp *laneGroup, rows *[6][]float32) lanes.Lane8 {
	m := len(read)
	n := grp.maxN
	if m == 0 || n == 0 {
		return lanes.Lane8{}
	}
	for k := range rows {
		rows[k] = scratch.Grow(rows[k], (n+1)*lanes.Width)
	}
	cur, prev := (*[3][]float32)(rows[:3]), (*[3][]float32)(rows[3:])
	var zeroL lanes.Lane8
	for j := 0; j <= n; j++ {
		o := j * lanes.Width
		lanes.Store8(prev[0], o, zeroL)
		lanes.Store8(prev[1], o, zeroL)
		// Free start anywhere on the haplotype: lane l carries its own
		// scaled initial mass on its own [0, len(hap_l)] columns.
		lanes.Store8(prev[2], o, lanes.Blend(grp.live[j], grp.init, zeroL))
	}
	wide := haveRowAsm && cpufeat.AVX2()
	i := 1
	if m%2 == 1 {
		r := rowAt(read, qual, grp, 1)
		rowLanes(&r, prev, cur, n)
		prev, cur = cur, prev
		i = 2
	}
	for ; i < m; i += 2 {
		ri, rj := rowAt(read, qual, grp, i), rowAt(read, qual, grp, i+1)
		rowPair(wide, &ri, &rj, prev, cur, n)
	}
	// Free end on the haplotype: sum M and I across each lane's own
	// final row span, in the scalar path's ascending-j order.
	var sumLo, sumHi, zero lanes.Quad
	for j := 1; j <= n; j++ {
		o := j * lanes.Width
		lb := uint32(grp.live[j])
		miLo := lanes.Load4(prev[0], o).Add(lanes.Load4(prev[1], o))
		miHi := lanes.Load4(prev[0], o+4).Add(lanes.Load4(prev[1], o+4))
		sumLo = sumLo.Add(lanes.Sel4(lb, miLo, zero))
		sumHi = sumHi.Add(lanes.Sel4(lb>>4, miHi, zero))
	}
	return lanes.Lane8{Lo: sumLo, Hi: sumHi}
}

// laneRow is one read position's inputs to the row kernels.
type laneRow struct {
	mask                      []uint8 // grp.mask of the read base, len n
	priorMatch, priorMismatch float32
}

// rowAt returns the row inputs of read position i (1-based).
func rowAt(read genome.Seq, qual []byte, grp *laneGroup, i int) laneRow {
	err := qualToErr[qual[i-1]]
	return laneRow{
		mask:          grp.mask[read[i-1]&3][:grp.maxN],
		priorMatch:    float32(1 - err),
		priorMismatch: float32(err / 3),
	}
}

// rowPair advances two read rows: ri from prev into cur, then rj from
// cur over prev. wide selects the AVX2 kernel; otherwise it is two
// rowLanes calls.
func rowPair(wide bool, ri, rj *laneRow, prev, cur *[3][]float32, n int) {
	if wide {
		rowPairAVX2(ri, rj, prev, cur, n)
		return
	}
	rowLanes(ri, prev, cur, n)
	rowLanes(rj, cur, prev, n)
}

// rowLanes advances all eight lanes of one read row on the portable
// body: column 0 of cur is zeroed and columns 1..n are filled from
// prev, one rowQuad sweep per Quad.
func rowLanes(r *laneRow, prev, cur *[3][]float32, n int) {
	for base := 0; base < lanes.Width; base += 4 {
		rowQuad(r.mask, r.priorMatch, r.priorMismatch,
			&prev[0][0], &prev[1][0], &prev[2][0], &cur[0][0], &cur[1][0], &cur[2][0], n, base)
	}
}

// rowQuad advances the M, I and D rows for lanes [base, base+4) of
// one read position. Per-lane arithmetic replays the scalar expression
// in the scalar order (see the package comment's bit-compatibility
// contract). The loop carries only the D chain's two quads (eight
// floats) and re-loads diagonal predecessors from the L1-resident
// previous row, keeping the live set inside amd64's float registers;
// row accesses go through the unchecked Load4U/Store4U forms — the
// caller sized every row to (n+1)*lanes.Width, so offsets up to
// n*lanes.Width+base+3 are in bounds by construction.
// The recurrence exploits two identities of the transition model that
// the scalar reference leaves unexploited: gap-continuation is
// symmetric (tIM == tDM, so tim*pId + tdm*pDd factors to
// tim*(pId+pDd), one multiply instead of two), and the I and D
// updates share their coefficients (tMI == tMD, tII == tDD), which
// shrinks the loop's live constants to four transition scalars plus
// the two priors — small enough that nothing spills. The factoring
// reassociates one addition per cell, which is why the lane contract
// is laneTolerance rather than bit-identity (see that constant's
// derivation).
//
// Every a*b + c*d in this function is written with explicit float32
// conversions around the products (inline for the table-indexed M
// update, via Quad.ScaleAdd2 for the I/D updates). The conversions
// pin each product to a separate rounding, so the arm64 compiler may
// not fuse them into FMAs — this is what keeps arm64, which runs this
// body, bit-identical to the AVX2 kernel in row_amd64.s (which rounds
// every product and sum separately). On amd64 they are no-ops.
//
// Each M/I/D quad goes through flush4 as it is computed — before the
// store and before it feeds the D chain — the same flush points as
// forwardInto and the assembly kernel.
func rowQuad(rowMask []uint8, priorMatch, priorMismatch float32,
	pPM, pPI, pPD, pCM, pCI, pCD *float32, n, base int) {
	tgo, tge := tmi32, tii32
	// Prior tables with the M-update transition constants folded in:
	// prM[bit] = prior*tMM and prG[bit] = prior*tIM, indexed by the
	// provably in-range match bit. One AND plus two indexed loads per
	// lane replaces a bitwise float select plus two register-resident
	// constants — and those two registers are exactly what keeps the
	// carried DP state from spilling (the loop's live set is at the
	// amd64 float-register limit). Pre-multiplying rounds prior*t once
	// outside the loop, the second reassociation covered by the
	// laneTolerance derivation.
	prM := [2]float32{priorMismatch * tmm32, priorMatch * tmm32}
	prG := [2]float32{priorMismatch * tim32, priorMatch * tim32}
	var zero, lastM, lastD lanes.Quad
	lanes.Store4U(pCM, base, zero)
	lanes.Store4U(pCI, base, zero)
	lanes.Store4U(pCD, base, zero)
	// The sweep is unrolled two columns deep: column j+1's diagonal M/I
	// predecessors are exactly column j's straight-up loads, so the
	// unrolled pair reuses them from registers and skips a quarter of
	// the row loads on top of halving the loop overhead.
	// The only values carried across the loop backedge are the D
	// chain's two quads and the two shared gap constants — ten floats,
	// comfortably inside amd64's fifteen XMM registers. Diagonal M/I
	// predecessors are re-loaded at the top of each unrolled pair (the
	// row is L1-resident); carrying them instead was measured to push
	// the live set past the register file and spill the whole loop.
	o := lanes.Width + base
	j := 1
	for ; j+1 <= n; j += 2 {
		pM := lanes.Load4U(pPM, o-lanes.Width)
		pI := lanes.Load4U(pPI, o-lanes.Width)
		pDd := lanes.Load4U(pPD, o-lanes.Width)
		mb := uint32(rowMask[j-1]) >> base
		g := pI.Add(pDd)
		mj := flush4(lanes.Quad{
			A: float32(pM.A*prM[mb&1]) + float32(g.A*prG[mb&1]),
			B: float32(pM.B*prM[mb>>1&1]) + float32(g.B*prG[mb>>1&1]),
			C: float32(pM.C*prM[mb>>2&1]) + float32(g.C*prG[mb>>2&1]),
			D: float32(pM.D*prM[mb>>3&1]) + float32(g.D*prG[mb>>3&1]),
		})
		pM = lanes.Load4U(pPM, o)
		pI = lanes.Load4U(pPI, o)
		ij := flush4(pM.ScaleAdd2(tgo, pI, tge))
		dj := flush4(lastM.ScaleAdd2(tgo, lastD, tge))
		lanes.Store4U(pCM, o, mj)
		lanes.Store4U(pCI, o, ij)
		lanes.Store4U(pCD, o, dj)

		pDd2 := lanes.Load4U(pPD, o)
		mb2 := uint32(rowMask[j]) >> base
		g2 := pI.Add(pDd2)
		mj2 := flush4(lanes.Quad{
			A: float32(pM.A*prM[mb2&1]) + float32(g2.A*prG[mb2&1]),
			B: float32(pM.B*prM[mb2>>1&1]) + float32(g2.B*prG[mb2>>1&1]),
			C: float32(pM.C*prM[mb2>>2&1]) + float32(g2.C*prG[mb2>>2&1]),
			D: float32(pM.D*prM[mb2>>3&1]) + float32(g2.D*prG[mb2>>3&1]),
		})
		pM = lanes.Load4U(pPM, o+lanes.Width)
		pI = lanes.Load4U(pPI, o+lanes.Width)
		ij2 := flush4(pM.ScaleAdd2(tgo, pI, tge))
		dj2 := flush4(mj.ScaleAdd2(tgo, dj, tge))
		lanes.Store4U(pCM, o+lanes.Width, mj2)
		lanes.Store4U(pCI, o+lanes.Width, ij2)
		lanes.Store4U(pCD, o+lanes.Width, dj2)
		lastM, lastD = mj2, dj2
		o += 2 * lanes.Width
	}
	if j <= n {
		pM := lanes.Load4U(pPM, o-lanes.Width)
		pI := lanes.Load4U(pPI, o-lanes.Width)
		pDd := lanes.Load4U(pPD, o-lanes.Width)
		mb := uint32(rowMask[j-1]) >> base
		g := pI.Add(pDd)
		mj := flush4(lanes.Quad{
			A: float32(pM.A*prM[mb&1]) + float32(g.A*prG[mb&1]),
			B: float32(pM.B*prM[mb>>1&1]) + float32(g.B*prG[mb>>1&1]),
			C: float32(pM.C*prM[mb>>2&1]) + float32(g.C*prG[mb>>2&1]),
			D: float32(pM.D*prM[mb>>3&1]) + float32(g.D*prG[mb>>3&1]),
		})
		pM = lanes.Load4U(pPM, o)
		pI = lanes.Load4U(pPI, o)
		ij := flush4(pM.ScaleAdd2(tgo, pI, tge))
		dj := flush4(lastM.ScaleAdd2(tgo, lastD, tge))
		lanes.Store4U(pCM, o, mj)
		lanes.Store4U(pCI, o, ij)
		lanes.Store4U(pCD, o, dj)
	}
}

// flush4 replaces every lane of q below flushFloor32 with +0.
func flush4(q lanes.Quad) lanes.Quad {
	if q.A < flushFloor32 {
		q.A = 0
	}
	if q.B < flushFloor32 {
		q.B = 0
	}
	if q.C < flushFloor32 {
		q.C = 0
	}
	if q.D < flushFloor32 {
		q.D = 0
	}
	return q
}

// evaluateRegionLanes is the lane-batched region evaluation: full
// groups of eight haplotypes per lane pass, the ragged tail and any
// underflowing lanes on the scalar paths. Caller guarantees s != nil
// and len(rg.Haps) >= lanes.Width.
func evaluateRegionLanes(rg *Region, s *Scratch) RegionResult {
	nr, nh := len(rg.Reads), len(rg.Haps)
	var res RegionResult
	s.bestHap = scratch.Grow(s.bestHap, nr)
	s.likelihoods = scratch.Grow(s.likelihoods, nr*nh)
	res.BestHap = s.bestHap
	res.Likelihoods = s.likelihoods
	clear(res.BestHap)
	nGroups := prepareGroups(rg.Haps, s)
	for r := 0; r < nr; r++ {
		read, qual := rg.Reads[r], rg.Quals[r]
		m := len(read)
		best := math.Inf(-1)
		for g := 0; g < nGroups; g++ {
			grp := &s.groups[g]
			var sums lanes.Lane8
			if m > 0 {
				sums = forwardLanes(read, qual, grp, &s.laneRows)
			}
			for l := 0; l < lanes.Width; l++ {
				h := g*lanes.Width + l
				nl := grp.lens[l]
				ll := math.Inf(-1)
				if m > 0 && nl > 0 {
					res.CellUpdates += uint64(m) * uint64(nl)
					var ok bool
					if ll, ok = log10From32(sums.At(l)); !ok {
						// float32 underflow: scalar float64 fallback,
						// identical to the scalar path's rescue.
						var cells64 uint64
						ll, cells64 = fallback64(read, qual, rg.Haps[h], &s.rows64)
						res.Fallbacks++
						res.CellUpdates += cells64
					}
				}
				res.Likelihoods[r*nh+h] = ll
				if ll > best {
					best = ll
					res.BestHap[r] = h
				}
			}
		}
		// Ragged tail: the scalar float32 path unchanged.
		for h := nGroups * lanes.Width; h < nh; h++ {
			lr := LikelihoodInto(read, qual, rg.Haps[h], s)
			res.Likelihoods[r*nh+h] = lr.Log10Likelihood
			res.CellUpdates += lr.CellUpdates
			if lr.UsedDouble {
				res.Fallbacks++
			}
			if lr.Log10Likelihood > best {
				best = lr.Log10Likelihood
				res.BestHap[r] = h
			}
		}
	}
	return res
}
