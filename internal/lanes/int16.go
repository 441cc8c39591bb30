package lanes

// Int16 lane vectors for the suite's integer DP kernels. An I16x8
// holds eight int16 DP cells side by side — eight consecutive columns
// of one poa graph-node row — so one pass of the inner loop advances
// all of them at once. Like the float32 Lane8, the type is a nested
// struct of two four-field quads so the compiler SSA-decomposes whole
// cell updates into registers, and every helper is a fully unrolled,
// branch-free eight-element expression.
//
// Two properties the integer DP kernels rely on:
//
//   - Add/AddS wrap exactly like Go int16 arithmetic; they are the
//     scalar expression per lane, nothing more. Kernels own the proof
//     that their operands stay in range (poa commits a per-window
//     bound before choosing the lane path and falls back to the
//     scalar int32 sweep when it fails). Adds/AddsS are the
//     saturating forms for callers that prefer clamping to wrapping
//     at the range boundary; saturation is a guard, not a semantics
//     change — a kernel that can saturate must not take the lane path.
//   - Max implements the scalar cores' strict-greater update
//     (`if s > best { best = s }`) lane by lane, with the same
//     first-operand-wins ties, and PickI16 selects bit-exactly one of
//     two values per lane.

// QuadI16 is four int16 lanes; two quads nest into an I16x8.
type QuadI16 struct {
	A, B, C, D int16
}

// I16x8 is a vector of eight int16 DP cells: lanes 0-3 in Lo.A..Lo.D,
// lanes 4-7 in Hi.A..Hi.D.
type I16x8 struct {
	Lo, Hi QuadI16
}

// SplatI16 returns a lane vector with x in every lane.
func SplatI16(x int16) I16x8 {
	return I16x8{QuadI16{x, x, x, x}, QuadI16{x, x, x, x}}
}

// FromArrayI16 builds an I16x8 from the array form (lane l = a[l]).
func FromArrayI16(a [Width]int16) I16x8 {
	return I16x8{QuadI16{a[0], a[1], a[2], a[3]}, QuadI16{a[4], a[5], a[6], a[7]}}
}

// Array returns the lanes in array form (for tests and cold paths).
func (a I16x8) Array() [Width]int16 {
	return [Width]int16{a.Lo.A, a.Lo.B, a.Lo.C, a.Lo.D, a.Hi.A, a.Hi.B, a.Hi.C, a.Hi.D}
}

// Load8I16 gathers eight consecutive values s[i..i+8) into an I16x8.
func Load8I16(s []int16, i int) I16x8 {
	_ = s[i+7]
	return I16x8{
		QuadI16{s[i], s[i+1], s[i+2], s[i+3]},
		QuadI16{s[i+4], s[i+5], s[i+6], s[i+7]},
	}
}

// Store8I16 scatters a into s[i..i+8).
func Store8I16(s []int16, i int, a I16x8) {
	_ = s[i+7]
	s[i] = a.Lo.A
	s[i+1] = a.Lo.B
	s[i+2] = a.Lo.C
	s[i+3] = a.Lo.D
	s[i+4] = a.Hi.A
	s[i+5] = a.Hi.B
	s[i+6] = a.Hi.C
	s[i+7] = a.Hi.D
}

// addsI16 is the scalar saturating add: the exact sum clamped to the
// int16 range instead of wrapped.
func addsI16(a, b int16) int16 {
	s := int32(a) + int32(b)
	if s > 32767 {
		return 32767
	}
	if s < -32768 {
		return -32768
	}
	return int16(s)
}

// Adds returns a + b element-wise with saturation at the int16 range.
func (a I16x8) Adds(b I16x8) I16x8 {
	return I16x8{
		QuadI16{addsI16(a.Lo.A, b.Lo.A), addsI16(a.Lo.B, b.Lo.B), addsI16(a.Lo.C, b.Lo.C), addsI16(a.Lo.D, b.Lo.D)},
		QuadI16{addsI16(a.Hi.A, b.Hi.A), addsI16(a.Hi.B, b.Hi.B), addsI16(a.Hi.C, b.Hi.C), addsI16(a.Hi.D, b.Hi.D)},
	}
}

// AddsS returns a + s with a scalar broadcast, saturating.
func (a I16x8) AddsS(s int16) I16x8 {
	return I16x8{
		QuadI16{addsI16(a.Lo.A, s), addsI16(a.Lo.B, s), addsI16(a.Lo.C, s), addsI16(a.Lo.D, s)},
		QuadI16{addsI16(a.Hi.A, s), addsI16(a.Hi.B, s), addsI16(a.Hi.C, s), addsI16(a.Hi.D, s)},
	}
}

// maxI16 is the scalar two-way max with the DP kernels' tie
// convention: the FIRST operand wins ties, exactly the
// `if s > best { best = s }` shape of the scalar cores.
func maxI16(a, b int16) int16 {
	if b > a {
		return b
	}
	return a
}

// Max returns the element-wise maximum; lane l is a_l unless
// b_l > a_l, matching the scalar cores' strict-greater updates.
func (a I16x8) Max(b I16x8) I16x8 {
	return I16x8{
		QuadI16{maxI16(a.Lo.A, b.Lo.A), maxI16(a.Lo.B, b.Lo.B), maxI16(a.Lo.C, b.Lo.C), maxI16(a.Lo.D, b.Lo.D)},
		QuadI16{maxI16(a.Hi.A, b.Hi.A), maxI16(a.Hi.B, b.Hi.B), maxI16(a.Hi.C, b.Hi.C), maxI16(a.Hi.D, b.Hi.D)},
	}
}

// selI16 selects one of two int16 values through a 0/1 bit without a
// branch: the bit widens to an all-ones/all-zeros mask applied to the
// raw bit patterns, so the result is bit-exactly on (bit==1) or off.
func selI16(bit uint32, on, off int16) int16 {
	msk := int16(-int32(bit)) // 0 or -1 (all ones)
	return on&msk | off&^msk
}

// PickI16 broadcasts a two-value choice through a lane mask: lane l
// is on when bit l of mask is set, off otherwise — poa's per-column
// match/mismatch substitution score.
func PickI16(mask uint8, on, off int16) I16x8 {
	m := uint32(mask)
	return I16x8{
		QuadI16{selI16(m&1, on, off), selI16(m>>1&1, on, off), selI16(m>>2&1, on, off), selI16(m>>3&1, on, off)},
		QuadI16{selI16(m>>4&1, on, off), selI16(m>>5&1, on, off), selI16(m>>6&1, on, off), selI16(m>>7&1, on, off)},
	}
}
