package nn

import "repro/internal/cpufeat"

// The accumulate microkernel: every dense inner loop of the package —
// MatMul, Conv1D (one call per kernel offset), the LSTM gate update
// and, through MatMul, the dense heads and the pointwise stage of
// SeparableConv1D — is one call to accRows; the depthwise taps are
// mulAccRows. Each has two bodies, the portable Go loop below and an
// AVX2 assembly body (accum_amd64.s) that keeps the output block in
// YMM registers across k, and both obey the same four rules, which is
// what makes every tier produce the same bits on every host:
//
//  1. one accumulator per output element — the k products of an
//     element are never split into partial sums;
//  2. k strictly ascending;
//  3. a[k] == 0 (either sign) contributes nothing at all: skipping is
//     not the same as adding 0*b (0*Inf is NaN, and -0 + +0 is +0);
//  4. a rounded multiply followed by a rounded add, never a fused
//     multiply-add: VMULPS+VADDPS in the assembly, and an explicit
//     float32(x*y) conversion in the portable bodies, which is what
//     forbids the compiler from fusing on arm64.
//
// Columns are independent chains, so how they are grouped into
// registers (64, 32, 16, 8 at a time, the last n%8 in portable code)
// cannot change a result. NaN payloads are the one thing left open:
// which operand's payload a commutative multiply or add propagates is
// the compiler's choice in Go, so tiers agree on where NaNs are, not
// on their mantissa bits.

// accRows computes, for each of rows output rows i,
//
//	dst[i*ldd : i*ldd+n] += Σ_k a[i*lda+k] · b[k*ldb : k*ldb+n]
//
// over k in [0, kk) under the rules above. Strides are in elements.
func accRows(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, rows, kk, n int) {
	if rows <= 0 || kk <= 0 || n <= 0 {
		return
	}
	// The assembly body does no bounds checks: prove the last element
	// of each operand is addressable before handing out raw pointers.
	_ = dst[(rows-1)*ldd+n-1]
	_ = a[(rows-1)*lda+kk-1]
	_ = b[(kk-1)*ldb+n-1]
	nv := 0
	if haveAccAsm && n >= 8 && cpufeat.AVX2() {
		nv = n &^ 7
		accRowsAVX2(dst, ldd, a, lda, b, ldb, rows, kk, nv)
	}
	if nv < n {
		accRowsPortable(dst[nv:], ldd, a, lda, b[nv:], ldb, rows, kk, n-nv)
	}
}

func accRowsPortable(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, rows, kk, n int) {
	for i := 0; i < rows; i++ {
		d := dst[i*ldd : i*ldd+n]
		for k, av := range a[i*lda : i*lda+kk] {
			if av == 0 {
				continue
			}
			br := b[k*ldb : k*ldb+n]
			for j := range d {
				d[j] += float32(av * br[j])
			}
		}
	}
}

// mulAccRows computes dst[i*ldd+j] += x[i*ldx+j] * y[j] for each of
// rows rows and j in [0, n): one depthwise tap applied down a
// sequence. There is no zero-skip (the scalar form never had one);
// the multiply and the add round separately.
func mulAccRows(dst []float32, ldd int, x []float32, ldx int, y []float32, rows, n int) {
	if rows <= 0 || n <= 0 {
		return
	}
	_ = dst[(rows-1)*ldd+n-1]
	_ = x[(rows-1)*ldx+n-1]
	_ = y[n-1]
	nv := 0
	if haveAccAsm && n >= 8 && cpufeat.AVX2() {
		nv = n &^ 7
		mulAccRowsAVX2(dst, ldd, x, ldx, y, rows, nv)
	}
	if nv < n {
		mulAccRowsPortable(dst[nv:], ldd, x[nv:], ldx, y[nv:], rows, n-nv)
	}
}

func mulAccRowsPortable(dst []float32, ldd int, x []float32, ldx int, y []float32, rows, n int) {
	y = y[:n]
	for i := 0; i < rows; i++ {
		d := dst[i*ldd : i*ldd+n]
		xr := x[i*ldx : i*ldx+n]
		for j, yv := range y {
			d[j] += float32(xr[j] * yv)
		}
	}
}
