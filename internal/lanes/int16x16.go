package lanes

// I16x16: the 16-wide int16 lane vector for the wide SIMD tier. Two
// I16x8s nest so the whole value still SSA-decomposes into registers
// (each I16x8 is two four-field quads); lanes 0-7 live in Lo, 8-15 in
// Hi. One I16x16 is exactly one AVX2 ymm register (VPADDSW/VPMAXSW/
// VPBLENDVB lanes), which is why the poa and bsw wide row kernels
// speak this type: the portable methods here are the bit-level
// reference the asm row kernels are differential-tested against, and
// the only body arm64 and every other architecture run.
//
// Semantics the wide kernels rely on:
//
//   - Add/AddS wrap exactly like Go int16; Adds/AddsS/Subs/SubsS
//     saturate at ±32767/-32768, matching VPADDSW/VPSUBSW lane for
//     lane. Under a kernel's range proof the two forms agree (nothing
//     wraps, nothing saturates), which is how the asm kernels —
//     saturating, for sentinel safety — stay bit-identical to scalar
//     int32 references that neither wrap nor clamp.
//   - Saturating subtraction of non-negative decrements composes
//     exactly: sat(sat(x-a)-b) == sat(x-(a+b)) for a,b >= 0. The
//     prefix-max gap chains in the wide kernels (log-step in asm,
//     serial in the portable twins) are value-identical because max
//     distributes over that clamp.

// WideWidth is the wide tier's lane count: one ymm register of int16.
const WideWidth = 16

// I16x16 is a vector of sixteen int16 DP cells.
type I16x16 struct {
	Lo, Hi I16x8
}

// SplatI16x16 returns a wide vector with x in every lane.
func SplatI16x16(x int16) I16x16 {
	return I16x16{SplatI16(x), SplatI16(x)}
}

// FromArrayI16x16 builds an I16x16 from the array form (lane l = a[l]).
func FromArrayI16x16(a [WideWidth]int16) I16x16 {
	var lo, hi [Width]int16
	copy(lo[:], a[:Width])
	copy(hi[:], a[Width:])
	return I16x16{FromArrayI16(lo), FromArrayI16(hi)}
}

// Array returns the lanes in array form (tests and cold paths).
func (a I16x16) Array() [WideWidth]int16 {
	var out [WideWidth]int16
	lo, hi := a.Lo.Array(), a.Hi.Array()
	copy(out[:Width], lo[:])
	copy(out[Width:], hi[:])
	return out
}

// Load16I16 gathers sixteen consecutive values s[i..i+16) into an
// I16x16 — one VMOVDQU in the asm kernels.
func Load16I16(s []int16, i int) I16x16 {
	return I16x16{Load8I16(s, i), Load8I16(s, i+8)}
}

// Store16I16 scatters a into s[i..i+16).
func Store16I16(s []int16, i int, a I16x16) {
	Store8I16(s, i, a.Lo)
	Store8I16(s, i+8, a.Hi)
}

// Adds returns a + b element-wise, saturating at the int16 range —
// VPADDSW / SQADD.
func (a I16x16) Adds(b I16x16) I16x16 {
	return I16x16{a.Lo.Adds(b.Lo), a.Hi.Adds(b.Hi)}
}

// AddsS returns a + s with a scalar broadcast, saturating.
func (a I16x16) AddsS(s int16) I16x16 {
	return I16x16{a.Lo.AddsS(s), a.Hi.AddsS(s)}
}

// subsI16 is the scalar saturating subtract: the exact difference
// clamped to the int16 range.
func subsI16(a, b int16) int16 {
	d := int32(a) - int32(b)
	if d > 32767 {
		return 32767
	}
	if d < -32768 {
		return -32768
	}
	return int16(d)
}

// subsQuad applies subsI16 across one quad pair.
func subsQuad(a, b QuadI16) QuadI16 {
	return QuadI16{subsI16(a.A, b.A), subsI16(a.B, b.B), subsI16(a.C, b.C), subsI16(a.D, b.D)}
}

// Subs returns a - b element-wise, saturating at the int16 range —
// VPSUBSW / SQSUB.
func (a I16x16) Subs(b I16x16) I16x16 {
	return I16x16{
		I16x8{subsQuad(a.Lo.Lo, b.Lo.Lo), subsQuad(a.Lo.Hi, b.Lo.Hi)},
		I16x8{subsQuad(a.Hi.Lo, b.Hi.Lo), subsQuad(a.Hi.Hi, b.Hi.Hi)},
	}
}

// SubsS returns a - s with a scalar broadcast, saturating.
func (a I16x16) SubsS(s int16) I16x16 {
	return a.Subs(SplatI16x16(s))
}

// Max returns the element-wise maximum; lane l is a_l unless b_l >
// a_l, matching the scalar cores' strict-greater updates (and
// VPMAXSW / SMAX, for which the question is moot on ties).
func (a I16x16) Max(b I16x16) I16x16 {
	return I16x16{a.Lo.Max(b.Lo), a.Hi.Max(b.Hi)}
}

// Pick16 broadcasts a two-value choice through a lane mask: lane l is
// on when bit l of mask is set, off otherwise. This is the wide
// kernels' match-mask expansion: sixteen dense seq2.MatchMaskBits
// bits become sixteen substitution scores in one call (the asm
// kernels do it with a broadcast + bit-test-against-constant +
// compare + blend over one register).
func Pick16(mask uint16, on, off int16) I16x16 {
	return I16x16{
		PickI16(uint8(mask), on, off),
		PickI16(uint8(mask>>8), on, off),
	}
}
