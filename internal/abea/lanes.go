package abea

// Lane-blocked adaptive banded event alignment. AlignLanesInto
// restructures AlignInto's per-cell loop the way the lane-batched
// PairHMM pass restructures phmm (see internal/lanes): per read it
// hoists the pore-model emission terms into per-k-mer-rank tables
// (k-mer code, model mean/stdv, the log-stdv normalizer — all of
// which the scalar path recomputes per cell, including a math.Log),
// reverses the event means so every band-relative access is a
// contiguous ascending gather, and then sweeps the in-band interior
// in lane-width blocks with no per-cell bounds checks: within a band
// every predecessor offset is the cell offset plus a constant band
// shift, so the three dependencies become three shifted unaligned
// loads against negInf-padded band buffers (the pads replay the
// scalar path's out-of-band checks bit-for-bit).
//
// Unlike the PairHMM forward pass, the banded recurrence has no
// within-band serial chain — stay/step/skip all read earlier bands —
// so the sweep carries nothing across columns. Two bodies share that
// contract:
//
//   - bandSweepAVX2 / bandArgmaxAVX2 (band_amd64.s), taken when
//     cpufeat.AVX2() holds, the band has W >= 8 cells and the interior
//     at least 8: an 8-lane sweep of the interior, then a vector
//     arg-max over all W band cells. A ragged interior or band is
//     finished by re-running the last full vector at offset n-8 — a
//     cell depends only on earlier bands, so the overlap rewrites equal
//     values and the assembly has no scalar epilogue.
//   - bandSweepQuad / bandArgmax, the portable lanes.Quad sweep with a
//     scalar tail and the scalar strict-greater arg-max: every other
//     case (interiors under 8 cells, W < 8, GBENCH_SIMD=off,
//     arm64 and amd64 hosts without AVX2). It is the assembly's one
//     forced-portable twin.
//
// Numerics: every float expression replays the scalar path's
// operations in the scalar order (the emission tables round exactly
// once, in the same places), so scores, band movement, work counters
// and trace behaviour are BIT-IDENTICAL to AlignInto on every tier —
// asserted, not just bounded, by the differential tests and hammers.
// The assembly keeps that by construction: a rounded VMULPS followed
// by VSUBPS/VADDPS in the Go expression's order (never a fused
// multiply-add), a real VDIVPS (never a reciprocal estimate), and
// VMAXPS with the challenger as first source and the incumbent as
// second, which is Go's `if b > a { a = b }` exactly — ties, the
// negInf pads and NaN all resolve to the incumbent. The first two seed
// bands and bands with an empty interior run the scalar per-cell body
// unchanged.

import (
	"math"

	"repro/internal/cpufeat"
	"repro/internal/digest"
	"repro/internal/genome"
	"repro/internal/lanes"
	"repro/internal/scratch"
	"repro/internal/signalsim"
)

// logSqrt2Pi32 is signalsim's gaussian normalization constant at the
// float32 precision the scalar emission uses.
const logSqrt2Pi32 = float32(0.9189385332046727)

var (
	lpStayQ = lanes.Quad{A: lpStay, B: lpStay, C: lpStay, D: lpStay}
	lpStepQ = lanes.Quad{A: lpStep, B: lpStep, C: lpStep, D: lpStep}
	lpSkipQ = lanes.Quad{A: lpSkip, B: lpSkip, C: lpSkip, D: lpSkip}
	halfNeg = lanes.Quad{A: -0.5, B: -0.5, C: -0.5, D: -0.5}
	ls2piQ  = lanes.Quad{A: logSqrt2Pi32, B: logSqrt2Pi32, C: logSqrt2Pi32, D: logSqrt2Pi32}
)

// AlignLanesInto runs the lane-blocked adaptive banded alignment into
// a's reusable buffers (nil for a temporary arena). Results are
// bit-identical to AlignInto.
func AlignLanesInto(model *signalsim.PoreModel, seq genome.Seq, events []signalsim.Event, cfg Config, a *scratch.Arena) Result {
	return alignLanesInto(model, seq, events, cfg, a, nil)
}

func alignLanesInto(model *signalsim.PoreModel, seq genome.Seq, events []signalsim.Event, cfg Config, a *scratch.Arena, traj *trajectory) Result {
	if a == nil {
		a = scratch.New()
	}
	a.Reset()
	W := cfg.BandWidth
	if W < 4 {
		W = 4
	}
	nk := len(seq) - signalsim.K + 1
	ne := len(events)
	var res Result
	if nk <= 0 || ne == 0 {
		res.Score = negInf
		return res
	}

	// The tier is asked for once per read; bands narrower than one
	// vector stay on the portable body at every tier.
	wide := haveBandAsm && W >= 8 && cpufeat.AVX2()

	muK, sdK, lsK := a.Float32s(nk), a.Float32s(nk), a.Float32s(nk)
	emissionTables(model, seq, muK, sdK, lsK)
	// Reversed event means: cell o of a band at lower-left (e0,k0)
	// reads event e0-o, so in reversed coordinates the band's event
	// gather is contiguous and ascending, quad-loadable.
	evRev := a.Float32s(ne)
	for e := 0; e < ne; e++ {
		evRev[ne-1-e] = events[e].Mean
	}

	nBands := ne + nk + 1
	// Band buffers padded by one negInf sentinel on each side: shifted
	// predecessor loads at the band rim land on the pads, which encode
	// exactly the scalar path's "offset out of [0,W)" checks. Band
	// cell o lives at buf[o+1].
	prev := a.Float32s(W + 2)
	prev2 := a.Float32s(W + 2)
	cur := a.Float32s(W + 2)
	for o := range prev {
		prev[o], prev2[o], cur[o] = negInf, negInf, negInf
	}
	lle := a.Ints(nBands)
	llk := a.Ints(nBands)
	lle[0], llk[0] = -1+W/2, -1-W/2
	prev2[W/2+1] = 0 // origin in band 0
	lle[1], llk[1] = lle[0]+1, llk[0]
	copy(cur, prev2)
	prev, prev2 = cur, prev
	cur = a.Float32s(W + 2)
	cur[0], cur[W+1] = negInf, negInf

	bestFinal := negInf
	foundFinal := false
	maxOffsetPrev := W / 2

	for i := 1; i < nBands; i++ {
		if i >= 2 {
			if maxOffsetPrev >= W/2 {
				lle[i], llk[i] = lle[i-1], llk[i-1]+1
			} else {
				lle[i], llk[i] = lle[i-1]+1, llk[i-1]
			}
		}
		e0, k0 := lle[i], llk[i]

		// Interior interval [oA, oB]: offsets whose (e, k) are both in
		// range. Everything below oA has e >= ne or k < 0; everything
		// above oB has k >= nk or e < 0 — all negInf except the single
		// skip-only prefix cell at e == -1.
		oA := 0
		if v := e0 - ne + 1; v > oA {
			oA = v
		}
		if v := -k0; v > oA {
			oA = v
		}
		oB := W - 1
		if e0 < oB {
			oB = e0
		}
		if v := nk - 1 - k0; v < oB {
			oB = v
		}

		if i < 2 || oB < oA {
			// Seed bands and fully-out-of-band bands: scalar body.
			maxOffsetPrev = scalarBand(i, W, ne, nk, lle, llk, prev, prev2, cur, evRev, muK, sdK, lsK, &res, &bestFinal, &foundFinal)
			traj.observe(maxOffsetPrev)
			prev2, prev, cur = prev, cur, prev2
			continue
		}

		// Edges: negInf except the e == -1 prefix cell.
		for o := 0; o < oA; o++ {
			cur[o+1] = negInf
		}
		for o := oB + 1; o < W; o++ {
			cur[o+1] = negInf
		}
		if o := e0 + 1; o >= 0 && o < W {
			if k := k0 + o; k >= -1 && k < nk {
				// e == -1: skip-only prefix row (k == -1 stays negInf).
				if k >= 0 {
					cur[o+1] = lpSkip * float32(k+1)
				}
			}
		}

		// Constant band shifts: within band i, cell o's up/left
		// predecessors sit at o+s1/o+s1-1 in band i-1 and its diagonal
		// at o+s2 in band i-2.
		s1 := lle[i-1] - e0 + 1
		s2 := lle[i-2] - e0 + 1
		eb := ne - 1 - e0 // evRev index of cell o = eb + o
		kb := k0

		n := oB - oA + 1
		res.CellUpdates += uint64(n)
		x, mu, sd, ls := evRev[eb+oA:][:n], muK[kb+oA:][:n], sdK[kb+oA:][:n], lsK[kb+oA:][:n]
		up, left, diag := prev[oA+s1+1:][:n], prev[oA+s1:][:n], prev2[oA+s2+1:][:n]
		if wide && n >= 8 {
			bandSweepAVX2(x, mu, sd, ls, up, left, diag, cur[oA+1:][:n])
		} else {
			bandSweepQuad(x, mu, sd, ls, up, left, diag, cur[oA+1:][:n])
		}

		// Band max over all W cells, edges included (negInf cells can
		// never win; an all-negInf band keeps offset 0 — exactly the
		// scalar outcome).
		if wide {
			maxOffsetPrev = bandArgmaxAVX2(cur[1 : W+1])
		} else {
			maxOffsetPrev = bandArgmax(cur[1 : W+1])
		}
		traj.observe(maxOffsetPrev)

		// Terminal cell: at most one offset per band can be (ne-1,nk-1).
		if oF := e0 - (ne - 1); oF >= oA && oF <= oB && k0+oF == nk-1 {
			foundFinal = true
			if v := cur[oF+1]; v > bestFinal {
				bestFinal = v
			}
		}
		prev2, prev, cur = prev, cur, prev2
	}
	res.Score = bestFinal
	res.OutOfBand = !foundFinal
	res.Aligned = ne
	return res
}

// emissionTables fills the per-read emission tables, indexed by k-mer
// rank: one gather per band cell instead of a KmerCode walk plus a
// math.Log. Each entry rounds exactly where LogProbMatch rounds, so
// emission over the tables is bit-identical to it.
func emissionTables(model *signalsim.PoreModel, seq genome.Seq, muK, sdK, lsK []float32) {
	genome.EachKmer(seq, signalsim.K, func(pos int, code uint64) {
		muK[pos] = model.Mean[code]
		sdK[pos] = model.Stdv[code]
		lsK[pos] = float32(math.Log(float64(model.Stdv[code])))
	})
}

// emission is LogProbMatch over one emissionTables entry.
func emission(x, mu, sd, ls float32) float32 {
	z := (x - mu) / sd
	return -0.5*z*z - ls - logSqrt2Pi32
}

// trajectory is the tests' view of the band path: a fold of every
// band's arg-max offset. A nil *trajectory (every production call)
// records nothing.
type trajectory uint64

func (t *trajectory) observe(arg int) {
	if t != nil {
		*t = trajectory(digest.Word(uint64(*t), uint64(arg)))
	}
}

// bandSweepQuad is the portable interior sweep: cell o of the
// interior reads x/mu/sd/ls[o], its up/left predecessors in band i-1
// and its diagonal in band i-2 (all eight slices start at the
// interior's first cell and have its length), and writes dst[o].
func bandSweepQuad(x, mu, sd, ls, up, left, diag, dst []float32) {
	n := len(dst)
	o := 0
	for ; o+4 <= n; o += 4 {
		z := lanes.Load4U(&x[0], o).Sub(lanes.Load4U(&mu[0], o)).Div(lanes.Load4U(&sd[0], o))
		emit := halfNeg.Mul(z).Mul(z).Sub(lanes.Load4U(&ls[0], o)).Sub(ls2piQ)
		stay := lanes.Load4U(&up[0], o).Add(lpStayQ).Add(emit)
		step := lanes.Load4U(&diag[0], o).Add(lpStepQ).Add(emit)
		skip := lanes.Load4U(&left[0], o).Add(lpSkipQ)
		lanes.Store4U(&dst[0], o, stay.Max(step).Max(skip))
	}
	// Ragged quad tail: the same expressions one cell at a time.
	for ; o < n; o++ {
		emit := emission(x[o], mu[o], sd[o], ls[o])
		stay := up[o] + lpStay + emit
		step := diag[o] + lpStep + emit
		skip := left[o] + lpSkip
		v := stay
		if step > v {
			v = step
		}
		if skip > v {
			v = skip
		}
		dst[o] = v
	}
}

// bandArgmax is the scalar loop's strict-greater first-winner arg-max
// over one band: the lowest offset holding the band maximum, 0 when no
// cell exceeds negInf.
func bandArgmax(band []float32) int {
	rowMax, rowArg := negInf, 0
	for o, v := range band {
		if v > rowMax {
			rowMax, rowArg = v, o
		}
	}
	return rowArg
}

// scalarBand runs AlignInto's per-cell body for one band on the
// padded buffers: the exact reference loop, used for the two seed
// bands and bands with an empty lane interior. Returns the band's
// argmax offset.
func scalarBand(i, W, ne, nk int, lle, llk []int, prev, prev2, cur []float32,
	evRev, muK, sdK, lsK []float32, res *Result, bestFinal *float32, foundFinal *bool) int {
	rowMax := negInf
	rowArg := 0
	for o := 0; o < W; o++ {
		e := lle[i] - o
		k := llk[i] + o
		if e < -1 || k < -1 || e >= ne || k >= nk || (e == -1 && k == -1) {
			cur[o+1] = negInf
			continue
		}
		if e == -1 {
			cur[o+1] = lpSkip * float32(k+1)
			if cur[o+1] > rowMax {
				rowMax = cur[o+1]
				rowArg = o
			}
			continue
		}
		if k == -1 {
			cur[o+1] = negInf
			continue
		}
		res.CellUpdates++
		var up, left, diag float32 = negInf, negInf, negInf
		if o2 := lle[i-1] - (e - 1); o2 >= 0 && o2 < W {
			up = prev[o2+1]
		}
		if o2 := lle[i-1] - e; o2 >= 0 && o2 < W {
			left = prev[o2+1]
		}
		if i >= 2 {
			if o3 := lle[i-2] - (e - 1); o3 >= 0 && o3 < W {
				diag = prev2[o3+1]
			}
		}
		emit := emission(evRev[ne-1-e], muK[k], sdK[k], lsK[k])
		stay := up + lpStay + emit
		step := diag + lpStep + emit
		skip := left + lpSkip
		v := stay
		if step > v {
			v = step
		}
		if skip > v {
			v = skip
		}
		cur[o+1] = v
		if v > rowMax {
			rowMax = v
			rowArg = o
		}
		if e == ne-1 && k == nk-1 {
			*foundFinal = true
			if v > *bestFinal {
				*bestFinal = v
			}
		}
	}
	return rowArg
}
