package nn

import (
	"math"

	"repro/internal/cpufeat"
)

// Activation applies an elementwise nonlinearity to src, writing dst.
// dst must be at least as long as src, and either be src itself (the
// layers activate in place) or not overlap it.
type Activation func(dst, src []float32)

// The scalar activations. They define every activation's answer: the
// slice forms below produce exactly these bits on every tier.

// ReLU clamps negatives to zero.
func ReLU(x float32) float32 {
	if x < 0 {
		return 0
	}
	return x
}

// Sigmoid is the logistic function.
func Sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// Tanh is the hyperbolic tangent.
func Tanh(x float32) float32 { return float32(math.Tanh(float64(x))) }

// Swish is x*sigmoid(x), Bonito's activation.
func Swish(x float32) float32 { return x * Sigmoid(x) }

// ReLUSlice is ReLU over a slice.
func ReLUSlice(dst, src []float32) { mapScalar(dst, src, ReLU) }

// SigmoidSlice is Sigmoid over a slice.
func SigmoidSlice(dst, src []float32) { sweep(dst, src, Sigmoid, sigmoidAsm) }

// TanhSlice is Tanh over a slice.
func TanhSlice(dst, src []float32) { sweep(dst, src, Tanh, tanhAsm) }

// SwishSlice is Swish over a slice.
func SwishSlice(dst, src []float32) { sweep(dst, src, Swish, swishAsm) }

// The exact activation lanes: the AVX2 bodies (act_amd64.s) widen four
// float32 inputs per ymm to float64 and evaluate the scalar function's
// float64 expression on them, with math.Exp copied instruction for
// instruction from the FMA path of go1.24's math/exp_amd64.s — the path
// math.Exp takes on every host cpufeat lets the AVX2 tier run on — and
// math.Tanh's three branches computed side by side and blended per
// lane. Each operation rounds exactly as the scalar one does, so every
// output bit equals the scalar function's.
//
// A lane whose input is outside the range where that holds — |x| > 700
// (a little past it archExp branches off to overflow, underflow or a
// subnormal result) and NaN — is not computed: the kernel stores its
// input unchanged and reports that it did. No computed output is such a
// value (sigmoid and tanh lie in [-1, 1], and |swish(x)| <= |x| <= 700),
// so sweep finds those lanes by their value alone and runs the scalar
// function on them. A toolchain whose math.Exp or math.Tanh no longer
// matches the copy fails TestActivationCoresMatchFloat64.
const redoAbove = 700

// sweep applies f to src, writing dst: the AVX2 body over whole groups
// of four, then f on whatever it left and on the tail.
func sweep(dst, src []float32, f func(float32) float32, lanes func(dst, src []float32) (redo bool)) {
	dst = dst[:len(src)]
	n := 0
	if haveActAsm && cpufeat.AVX2() {
		n = len(src) &^ 3
		if n > 0 && lanes(dst[:n], src[:n]) {
			for i, v := range dst[:n] {
				if !(math.Abs(float64(v)) <= redoAbove) {
					dst[i] = f(v)
				}
			}
		}
	}
	mapScalar(dst[n:], src[n:], f)
}

// mapScalar is the portable body: dst[i] = f(src[i]).
func mapScalar(dst, src []float32, f func(float32) float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = f(v)
	}
}
