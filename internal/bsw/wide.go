package bsw

import (
	"repro/internal/genome"
	"repro/internal/lanes"
	"repro/internal/scratch"
	"repro/internal/seq2"
)

// The 16-wide int16 band kernel — the form the original BWA-MEM2
// kernel actually ships: one SIMD vector of saturating int16 cells per
// 16-column group, with the horizontal (F) gap chain resolved by a
// prefix-max scan instead of the scalar serial carry.
//
// alignWide replays AlignInto's recurrence exactly and is
// differential-tested to return identical Results. The int16 rows
// halve the memory traffic of the int32 SWAR rows again, and the asm
// kernel (row_amd64.s via row_amd64.go) retires 16 cells per step.
// Dispatch is three-way gated in AlignInto: the architecture
// must have an asm kernel (bswHaveWideAsm), the host must report a
// wide tier (cpufeat.Wide16, which folds in the GBENCH_SIMD override),
// the scoring must pass wideEligible's range proof, and the DP area
// must clear the measured lanes.WideMinWork floor.
//
// Correctness structure, mirroring poa's row_wide.go:
//
//  1. wideEligible bounds every reachable |score| by wideScoreBound,
//     so real values never saturate and int16 arithmetic equals the
//     scalar int32 reference bit for bit.
//  2. Unreachable cells carry the -32768 sentinel. Saturating
//     subtraction of nonnegative penalties is sticky at -32768, and
//     sentinel-derived values can gain at most m*match <= wideScoreBound
//     over the whole DP, so they stay below -32768+wideScoreBound —
//     strictly under every reachable value (>= -wideScoreBound) and
//     under best-ZDrop (ZDrop <= wideScoreBound). Every comparison
//     against a sentinel therefore resolves exactly as the scalar
//     reference's -(1<<29) does.
//  3. The F chain is linearized before vectorizing: with oe >= ge the
//     self-referential f[j] = max(H[j-1]-oe, f[j-1]-ge) equals the
//     chain f[j] = max(c[j-1], f[j-1]-ge) over c[j] = max(htmp[j],
//     clamp) - oe, where htmp is the cell value before the F merge
//     (the f-through-H term is dominated by the direct f chain). That
//     chain is the same shift-and-max recurrence as poa's gap scan,
//     so the asm kernel runs it as a log-step prefix-max scan; scan
//     and serial chain are value-identical for ge in [0, 4095] (each
//     scan constant ge, 2ge, 4ge, 8ge is an exact int16 product, and
//     saturating subtractions of same-sign constants compose exactly).
//
// Rows carry lanes.WideWidth padding cells past column n so the last
// group can load and store full vectors; padding lanes sit right of
// the band, are masked out of the row maximum, and the only padding
// cell later rows can read (hi+1, since the band edge advances by at
// most one column per row) is re-sentineled after every row exactly
// like the scalar path.

// negInf16 is the int16 band sentinel. It is a fixed point of
// saturating nonnegative-penalty subtraction, which is what keeps
// unreachable cells unreachable without int32 headroom.
const negInf16 = int16(-32768)

// wideScoreBound caps |score| for the int16 path. 8000 leaves the
// sentinel separation argument a >4x margin (it only needs
// 2*bound < 32768) and keeps every intermediate sum exact.
const wideScoreBound = 8000

// wideEligible reports whether the int16 kernel provably computes the
// same alignment as the int32 reference for query length m and target
// length n: nonnegative scoring (the kernel's saturation and sentinel
// arguments need penalties to be penalties), ZDrop within the
// sentinel separation margin, and every reachable |score| bounded by
// wideScoreBound. A path through the DP takes at most m+n steps, each
// changing the score by at most max(match, mismatch, gapO+gapE); the
// +16 absorbs the padding lanes of the last group.
func wideEligible(p Params, m, n int) bool {
	if p.Match < 0 || p.Mismatch < 0 || p.GapOpen < 0 || p.GapExtend < 0 {
		return false
	}
	if p.ZDrop > wideScoreBound {
		return false
	}
	step := int64(p.Match)
	if int64(p.Mismatch) > step {
		step = int64(p.Mismatch)
	}
	if oe := int64(p.GapOpen) + int64(p.GapExtend); oe > step {
		step = oe
	}
	return int64(p.GapOpen)+int64(m+n+16)*step <= wideScoreBound
}

// wideArea is the DP-area estimate the dispatch floor compares
// against lanes.WideMinWork: rows times banded columns.
func wideArea(p Params, m, n int) int {
	w := p.Band
	if w <= 0 {
		w = 1
	}
	cols := 2*w + 1
	if cols > n {
		cols = n
	}
	return m * cols
}

// alignWide is AlignInto over int16 rows and 16-column groups. Same
// contract: claims the arena, bit-identical Results. useAsm selects
// the assembly row kernel; tests pin it false to exercise the
// portable twin on any host.
func alignWide(q, t genome.Seq, p Params, a *scratch.Arena, useAsm bool) Result {
	m, n := len(q), len(t)
	res := Result{}
	if m == 0 || n == 0 {
		return res
	}
	if a == nil {
		a = scratch.New()
	}
	a.Reset()
	w := p.Band
	if w <= 0 {
		w = 1
	}
	const pad = lanes.WideWidth
	H := a.Int16s(n + 1 + pad)
	E := a.Int16s(n + 1 + pad)
	prevH := a.Int16s(n + 1 + pad)
	pt := seq2.PackInto(a.Uint64s(seq2.Words(n)), t)
	// One spare zero word past the dense match bits lets the per-group
	// 16-bit window extraction below read a straddling high word
	// unconditionally.
	mwords := seq2.BitsWords(n)
	mbits := a.Uint64s(mwords + 1)
	mbits[mwords] = 0
	gmask := a.Uint16s((n+pad-1)/pad + 1)

	gapO := int16(p.GapOpen)
	ge := int16(p.GapExtend)
	oe := gapO + ge
	match := int16(p.Match)
	mism := int16(-p.Mismatch)
	local := p.Mode == Local
	clamp := negInf16
	if local {
		clamp = 0
	}

	// Row 0 initialization (same recurrence as AlignInto); padding
	// cells start as sentinels so row 1's out-of-band lanes compute
	// from defined values.
	for j := 0; j <= n; j++ {
		E[j] = negInf16
		if local || j == 0 {
			prevH[j] = 0
		} else if j <= w {
			prevH[j] = int16(-(p.GapOpen + j*p.GapExtend))
		} else {
			prevH[j] = negInf16
		}
	}
	for j := n + 1; j < n+1+pad; j++ {
		H[j] = negInf16
		E[j] = negInf16
		prevH[j] = negInf16
	}
	best := int16(0)
	bestI, bestJ := 0, 0
	if !local {
		best = negInf16
	}
	var cells uint64

	for i := 1; i <= m; i++ {
		lo := i - w
		if lo < 1 {
			lo = 1
		}
		hi := i + w
		if hi > n {
			hi = n
		}
		if lo > hi {
			break
		}
		// Left boundary of the row.
		if local {
			H[lo-1] = 0
		} else if lo == 1 {
			H[0] = int16(-(p.GapOpen + i*p.GapExtend))
		} else {
			H[lo-1] = negInf16
		}
		seq2.MatchMaskBits(mbits[:mwords], pt, q[i-1])
		// The band does not start 16-aligned, so each group's 16 match
		// bits straddle word boundaries: extract them here, where the
		// shift amounts are cheap, instead of in the kernels.
		ngroups := (hi - lo + 1 + pad - 1) / pad
		for gi := 0; gi < ngroups; gi++ {
			b := lo - 1 + pad*gi
			v := mbits[b>>6] >> uint(b&63)
			if b&63 > 48 {
				v |= mbits[b>>6+1] << uint(64-b&63)
			}
			gmask[gi] = uint16(v)
		}
		tail := uint16(0xFFFF) >> uint(pad*ngroups-(hi-lo+1))
		cells += uint64(hi - lo + 1)
		var rowMax int16
		if useAsm {
			rowMax = bswRowWide(prevH, H, E, gmask, lo, ngroups, tail, match, mism, oe, ge, clamp, H[lo-1])
		} else {
			rowMax = bswRowPortable(prevH, H, E, gmask, lo, ngroups, tail, match, mism, oe, ge, clamp, H[lo-1])
		}
		// Out-of-band cells on the right are unreachable. This also
		// repairs the one padding-lane store (hi+1) the next row reads.
		if hi < n {
			H[hi+1] = negInf16
			E[hi+1] = negInf16
		}
		if rowMax > best {
			best = rowMax
			bestI = i
			// The scalar reference records the leftmost cell achieving
			// the row maximum (strict-greater updates); recover it by
			// rescan, only on the rows that improve on best.
			bestJ = lo
			for j := lo; j <= hi; j++ {
				if H[j] == rowMax {
					bestJ = j
					break
				}
			}
		}
		if !local && p.ZDrop > 0 && int(rowMax) < int(best)-p.ZDrop {
			res.ZDropped = true
			break
		}
		prevH, H = H, prevH
	}
	res.Score = int(best)
	res.QEnd = bestI
	res.TEnd = bestJ
	res.CellUpdates = cells
	return res
}

// bswRowPortable advances one banded DP row, 16 columns per group.
// It is the bit-level reference for the asm kernel: same candidate
// order, same saturation, serial F chain where the asm runs the scan.
//   - prevH/curH/ev: previous H row, output H row, E row (updated in
//     place); all padded so index lo-1+16*ngroups stays in bounds.
//   - gmask: per-group match bits (bit l = column lo+16*gi+l matches).
//   - tail: valid-lane bits of the last group; lanes past the band
//     are excluded from the returned row maximum.
//   - hleft: the finished boundary cell curH[lo-1].
//
// Returns the row maximum over in-band lanes.
func bswRowPortable(prevH, curH, ev []int16, gmask []uint16, lo, ngroups int, tail uint16, match, mism, oe, ge, clamp, hleft int16) int16 {
	clampv := lanes.SplatI16x16(clamp)
	// carry is the incoming F-chain value for each group's lane 0:
	// for the first group f[lo] = H[lo-1]-oe (the row enters with
	// F = -inf, so only the open-from-boundary term survives).
	carry := satSub16(hleft, oe)
	rowMax := negInf16
	for gi := 0; gi < ngroups; gi++ {
		j := lo + gi*lanes.WideWidth
		s := lanes.Pick16(gmask[gi], match, mism)
		h1 := lanes.Load16I16(prevH, j-1).Adds(s)
		e2 := lanes.Load16I16(prevH, j).SubsS(oe).Max(lanes.Load16I16(ev, j).SubsS(ge))
		lanes.Store16I16(ev, j, e2)
		htmp := h1.Max(e2).Max(clampv)
		c := htmp.SubsS(oe).Array()
		var f [lanes.WideWidth]int16
		f[0] = carry
		for l := 1; l < lanes.WideWidth; l++ {
			f[l] = maxI16s(c[l-1], satSub16(f[l-1], ge))
		}
		hrow := htmp.Max(lanes.FromArrayI16x16(f))
		lanes.Store16I16(curH, j, hrow)
		vm := uint16(0xFFFF)
		if gi == ngroups-1 {
			vm = tail
		}
		ha := hrow.Array()
		for l := 0; l < lanes.WideWidth; l++ {
			if vm&(1<<uint(l)) != 0 && ha[l] > rowMax {
				rowMax = ha[l]
			}
		}
		carry = maxI16s(c[lanes.WideWidth-1], satSub16(f[lanes.WideWidth-1], ge))
	}
	return rowMax
}

// satSub16 is the scalar twin of VPSUBSW / SQSUB: exact difference
// clamped to the int16 range.
func satSub16(a, b int16) int16 {
	d := int32(a) - int32(b)
	if d > 32767 {
		return 32767
	}
	if d < -32768 {
		return -32768
	}
	return int16(d)
}

func maxI16s(a, b int16) int16 {
	if a > b {
		return a
	}
	return b
}
