// Package lanes provides the fixed-width lane vectors the suite's DP
// kernels execute in portable Go: Quad (four float32 lanes) under the
// phmm forward pass and abea's portable band sweep (the body every
// tier below AVX2 runs, and the bit-level reference for the 8-lane
// assembly sweep in internal/abea/band_amd64.s), Lane8 as the eight-wide
// container phmm groups haplotypes in, and the int16 I16x16 (int16.go,
// int16x16.go) that is the bit-level reference for poa's and bsw's
// 16-wide amd64 row kernels and the body arm64 and every other
// architecture run. Lanes hold independent DP problems side by
// side — eight haplotypes of one read, four band cells — so one pass
// of the inner loop advances all of them at once: the inter-task
// vectorization the upstream tools (GATK's AVX PairHMM, f5c's per-band
// lanes) win their speedups with. Every helper is an explicit
// fully-unrolled, branch-free expression sized to inline.
//
// Layout note: Lane8 is a nested struct of two four-float quads, not
// a [8]float32. The Go compiler only SSA-decomposes structs of at
// most four fields (recursively) — arrays and wider structs live in
// memory, which would force every intermediate lane value through a
// stack slot. amd64 has sixteen float registers and every live lane
// costs one, so the float kernels do their arithmetic a Quad at a time
// (two sweeps per Lane8 group) and use Lane8 only to carry a group's
// values between passes; A/B/C/D of Lo then Hi are lanes 0..7.
//
// Two properties the DP kernels rely on:
//
//   - Per-lane arithmetic is EXACTLY the scalar expression: lane l of
//     a.Mul(b) is a_l*b_l, with no reassociation, no fused
//     multiply-add, and no widening. Any rounding difference against a
//     scalar reference comes from the KERNEL's own restructuring (a
//     factored recurrence, an FMA emitted by the compiler on arm64),
//     never from these helpers; each kernel documents its resulting
//     tolerance and asserts it in a differential test (see
//     internal/phmm and internal/abea).
//   - Blend and Sel4 select through float bit masks (integer and/or
//     on Float32bits), not branches or table loads, so selection cost
//     is data-independent and the selected value is bit-exactly one of
//     the two inputs.
package lanes

import (
	"math"
	"unsafe"
)

// Width is the lane count. Eight float32 values fill two SSE registers
// (or one AVX register); it is also GATK's AVX-float PairHMM batch
// width, which is why phmm groups haplotypes by eight.
const Width = 8

// Quad is four float32 lanes; two quads nest into a Lane8. Four fields
// is the compiler's struct SSA-decomposition limit, which is the whole
// reason this is not a flat eight-field struct or an array. Quad
// carries the arithmetic: the phmm forward pass and abea's portable
// band sweep run as Quad sweeps.
type Quad struct {
	A, B, C, D float32
}

// Load4 gathers four consecutive values s[i..i+4) into a Quad.
func Load4(s []float32, i int) Quad {
	_ = s[i+3]
	return Quad{s[i], s[i+1], s[i+2], s[i+3]}
}

// Load4U and Store4U are unchecked forms of a four-lane load/store for the
// kernels' innermost loops, where the per-call bounds check is a
// measurable fraction of a DP column's budget (the rows are sized
// once per pass, so every in-loop check re-proves the same fact).
// p is the base of the row (&row[0]) and i the float offset; the
// CALLER owns the proof that i+4 <= len(row). Everything outside a
// kernel's inner loop uses the checked Load4 and Store8.

// Load4U gathers four consecutive floats at p[i..i+4) without bounds
// checks.
func Load4U(p *float32, i int) Quad {
	q := (*[4]float32)(unsafe.Add(unsafe.Pointer(p), uintptr(i)*4))
	return Quad{q[0], q[1], q[2], q[3]}
}

// Store4U scatters q into p[i..i+4) without bounds checks.
func Store4U(p *float32, i int, q Quad) {
	d := (*[4]float32)(unsafe.Add(unsafe.Pointer(p), uintptr(i)*4))
	d[0] = q.A
	d[1] = q.B
	d[2] = q.C
	d[3] = q.D
}

// Add returns a + b element-wise.
func (a Quad) Add(b Quad) Quad {
	return Quad{a.A + b.A, a.B + b.B, a.C + b.C, a.D + b.D}
}

// Mul returns a * b element-wise.
func (a Quad) Mul(b Quad) Quad {
	return Quad{a.A * b.A, a.B * b.B, a.C * b.C, a.D * b.D}
}

// Sub returns a - b element-wise.
func (a Quad) Sub(b Quad) Quad {
	return Quad{a.A - b.A, a.B - b.B, a.C - b.C, a.D - b.D}
}

// Div returns a / b element-wise. No reciprocal approximation: each
// lane performs the same IEEE division the scalar code would.
func (a Quad) Div(b Quad) Quad {
	return Quad{a.A / b.A, a.B / b.B, a.C / b.C, a.D / b.D}
}

// maxf is the scalar two-way max with the DP kernels' tie convention:
// the FIRST operand wins ties (and NaN in b never replaces a), exactly
// the `v := stay; if step > v { v = step }` shape of the scalar cores.
func maxf(a, b float32) float32 {
	if b > a {
		return b
	}
	return a
}

// Max returns the element-wise maximum with the first-operand-wins
// tie convention of the scalar cores.
func (a Quad) Max(b Quad) Quad {
	return Quad{maxf(a.A, b.A), maxf(a.B, b.B), maxf(a.C, b.C), maxf(a.D, b.D)}
}

// ScaleAdd2 returns a*s + b*t element-wise with every product and the
// sum rounded SEPARATELY. Composing it from separate scale and add
// helpers computes the same reals, but after inlining that exposes
// a*s + b*t to the compiler, which the Go spec permits to fuse into a single-
// rounding FMA on architectures that have one (arm64). The explicit
// float32 conversions here pin each intermediate to float32, which the
// spec forbids fusing across — so this form has ONE rounding order on
// every architecture. On amd64 the conversions are no-ops and the
// generated code is identical to the composed form. Kernels whose
// assembly counterparts must be bit-identical across architectures
// (phmm's row update) use this.
func (a Quad) ScaleAdd2(s float32, b Quad, t float32) Quad {
	return Quad{
		float32(a.A*s) + float32(b.A*t),
		float32(a.B*s) + float32(b.B*t),
		float32(a.C*s) + float32(b.C*t),
		float32(a.D*s) + float32(b.D*t),
	}
}

// Sel4 selects per lane through the low four bits of mask: lane l is
// on_l when bit l is set, off_l otherwise.
func Sel4(mask uint32, on, off Quad) Quad {
	return Quad{
		Sel(mask&1, on.A, off.A), Sel(mask>>1&1, on.B, off.B),
		Sel(mask>>2&1, on.C, off.C), Sel(mask>>3&1, on.D, off.D),
	}
}

// Lane8 is a vector of eight independent float32 DP states: lanes 0-3
// in Lo.A..Lo.D, lanes 4-7 in Hi.A..Hi.D.
type Lane8 struct {
	Lo, Hi Quad
}

// FromArray builds a Lane8 from the array form (lane l = a[l]).
func FromArray(a [Width]float32) Lane8 {
	return Lane8{Quad{a[0], a[1], a[2], a[3]}, Quad{a[4], a[5], a[6], a[7]}}
}

// Array returns the lanes in array form (for tests and cold paths).
func (a Lane8) Array() [Width]float32 {
	return [Width]float32{a.Lo.A, a.Lo.B, a.Lo.C, a.Lo.D, a.Hi.A, a.Hi.B, a.Hi.C, a.Hi.D}
}

// At returns lane l. Cold-path accessor: results extraction, tests.
func (a Lane8) At(l int) float32 {
	switch l {
	case 0:
		return a.Lo.A
	case 1:
		return a.Lo.B
	case 2:
		return a.Lo.C
	case 3:
		return a.Lo.D
	case 4:
		return a.Hi.A
	case 5:
		return a.Hi.B
	case 6:
		return a.Hi.C
	}
	return a.Hi.D
}

// Store8 scatters a into s[i..i+8).
func Store8(s []float32, i int, a Lane8) {
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

// Sel selects one of two float32 values through a 0/1 bit without a
// branch or a table load: the bit is widened to an all-ones/all-zeros
// mask and applied to the float bit patterns, so the result is
// bit-exactly on (bit==1) or off (bit==0). This is the primitive the
// kernels' hand-scheduled blends are built from.
func Sel(bit uint32, on, off float32) float32 {
	msk := -bit // 0 or 0xffffffff
	return math.Float32frombits(math.Float32bits(on)&msk | math.Float32bits(off)&^msk)
}

// Blend selects per lane by mask bit: lane l is on_l when bit l of
// mask is set, off_l otherwise.
func Blend(mask uint8, on, off Lane8) Lane8 {
	m := uint32(mask)
	return Lane8{
		Quad{
			Sel(m&1, on.Lo.A, off.Lo.A), Sel(m>>1&1, on.Lo.B, off.Lo.B),
			Sel(m>>2&1, on.Lo.C, off.Lo.C), Sel(m>>3&1, on.Lo.D, off.Lo.D),
		},
		Quad{
			Sel(m>>4&1, on.Hi.A, off.Hi.A), Sel(m>>5&1, on.Hi.B, off.Hi.B),
			Sel(m>>6&1, on.Hi.C, off.Hi.C), Sel(m>>7&1, on.Hi.D, off.Hi.D),
		},
	}
}

// HMax returns the horizontal maximum and the index of its FIRST
// occurrence, scanning lanes in ascending order with strict-greater
// updates — the same tie convention as the scalar band cores, so a
// lane-blocked argmax lands on the same cell as the scalar sweep.
func (a Lane8) HMax() (m float32, arg int) {
	arr := a.Array()
	m = arr[0]
	for l := 1; l < Width; l++ {
		if arr[l] > m {
			m, arg = arr[l], l
		}
	}
	return m, arg
}

// HSum returns the horizontal sum in ascending lane order.
func (a Lane8) HSum() float32 {
	return ((a.Lo.A + a.Lo.B) + (a.Lo.C + a.Lo.D)) + ((a.Hi.A + a.Hi.B) + (a.Hi.C + a.Hi.D))
}
