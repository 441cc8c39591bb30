package poa

import "repro/internal/lanes"

// The 16-wide row kernel for the lane-batched AddSequence sweep.
//
// One call advances one DP row across every 16-column group: expand
// the dense match bits into substitution scores, take the running max
// over the vertical candidates (diagonal + up per predecessor row),
// inject the left-chain carry from column j0-1, resolve the
// horizontal gap chain, and store the finished row segment. The asm
// kernel (row_amd64.s, dispatched through row_amd64.go) implements
// exactly this function with one ymm register per group;
// poaRowPortable is its bit-level reference and the fallback when
// cpufeat reports no wide tier.
//
// Everything is saturating int16 (lanes.I16x16 Adds / VPADDSW). Under laneEligible's range proof nothing ever saturates, so
// the kernel equals the scalar int32 reference bit for bit; on
// arbitrary out-of-proof inputs (the differential hammer feeds random
// tables) asm and portable still agree exactly because for gap in
// [-4096, 0] the asm kernel's log-step prefix-max gap scan is
// value-identical to the serial chain here: each scan step's constant
// (gap, 2*gap, 4*gap, 8*gap) is an exact int16 product at that bound,
// saturating adds of same-sign in-range constants compose exactly,
// max distributes over the clamp, and the scan's shifted-in -32768
// sentinel is a fixed point of saturating negative adds, so sentinel
// terms never beat real lanes. laneEligible guarantees far more: its
// gap <= 0 check feeds the sentinel argument, and its magnitude bound
// keeps |gap| under ~1800.

// poaRowPortable computes row rowOff/wpad of the score table.
//   - score: the full int16 DP table.
//   - predOff: element offsets of each predecessor row's start
//     (plist[k] * wpad); always at least one entry.
//   - mask: dense match-bit words for this row's base; bit j-1 set
//     means query column j matches. Group gi's 16 bits are 16-bit
//     aligned at bit offset 16*gi.
//   - rowOff: element offset of this row's start; score[rowOff]
//     (column 0) is already final and seeds the left chain.
//   - ngroups: number of 16-column groups ((wpad-1)/16).
func poaRowPortable(score []int16, predOff []int64, mask []uint64, rowOff, ngroups int, match, mism, gap int16) {
	for gi := 0; gi < ngroups; gi++ {
		j0 := 1 + gi*lanes.WideWidth
		mb := uint16(mask[gi>>2] >> (uint(gi&3) * 16))
		subv := lanes.Pick16(mb, match, mism)
		prow := int(predOff[0])
		best := lanes.Load16I16(score, prow+j0-1).Adds(subv)
		best = best.Max(lanes.Load16I16(score, prow+j0).AddsS(gap))
		for _, po := range predOff[1:] {
			prow = int(po)
			best = best.Max(lanes.Load16I16(score, prow+j0-1).Adds(subv))
			best = best.Max(lanes.Load16I16(score, prow+j0).AddsS(gap))
		}
		// Horizontal left chain: final[j] = max(vert[j], final[j-1]+gap),
		// seeded by the finished column j0-1. Serial by definition, so it
		// runs scalar across the group, unrolled over the lane struct
		// fields; vertical candidates win ties exactly as in the scalar
		// path (left replaces only on strict greater).
		f := score[rowOff+j0-1]
		if s := satAdd16(f, gap); s > best.Lo.Lo.A {
			best.Lo.Lo.A = s
		}
		if s := satAdd16(best.Lo.Lo.A, gap); s > best.Lo.Lo.B {
			best.Lo.Lo.B = s
		}
		if s := satAdd16(best.Lo.Lo.B, gap); s > best.Lo.Lo.C {
			best.Lo.Lo.C = s
		}
		if s := satAdd16(best.Lo.Lo.C, gap); s > best.Lo.Lo.D {
			best.Lo.Lo.D = s
		}
		if s := satAdd16(best.Lo.Lo.D, gap); s > best.Lo.Hi.A {
			best.Lo.Hi.A = s
		}
		if s := satAdd16(best.Lo.Hi.A, gap); s > best.Lo.Hi.B {
			best.Lo.Hi.B = s
		}
		if s := satAdd16(best.Lo.Hi.B, gap); s > best.Lo.Hi.C {
			best.Lo.Hi.C = s
		}
		if s := satAdd16(best.Lo.Hi.C, gap); s > best.Lo.Hi.D {
			best.Lo.Hi.D = s
		}
		if s := satAdd16(best.Lo.Hi.D, gap); s > best.Hi.Lo.A {
			best.Hi.Lo.A = s
		}
		if s := satAdd16(best.Hi.Lo.A, gap); s > best.Hi.Lo.B {
			best.Hi.Lo.B = s
		}
		if s := satAdd16(best.Hi.Lo.B, gap); s > best.Hi.Lo.C {
			best.Hi.Lo.C = s
		}
		if s := satAdd16(best.Hi.Lo.C, gap); s > best.Hi.Lo.D {
			best.Hi.Lo.D = s
		}
		if s := satAdd16(best.Hi.Lo.D, gap); s > best.Hi.Hi.A {
			best.Hi.Hi.A = s
		}
		if s := satAdd16(best.Hi.Hi.A, gap); s > best.Hi.Hi.B {
			best.Hi.Hi.B = s
		}
		if s := satAdd16(best.Hi.Hi.B, gap); s > best.Hi.Hi.C {
			best.Hi.Hi.C = s
		}
		if s := satAdd16(best.Hi.Hi.C, gap); s > best.Hi.Hi.D {
			best.Hi.Hi.D = s
		}
		lanes.Store16I16(score, rowOff+j0, best)
	}
}

// satAdd16 is the scalar twin of VPADDSW / SQADD: exact sum clamped
// to the int16 range.
func satAdd16(a, b int16) int16 {
	s := int32(a) + int32(b)
	if s > 32767 {
		return 32767
	}
	if s < -32768 {
		return -32768
	}
	return int16(s)
}
