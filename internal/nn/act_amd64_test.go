package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// TestActivationCoresMatchFloat64 checks the float64 cores of the
// activation lanes against the float64 expressions they copy, bit for
// bit. A float32 result hides most one-ulp float64 slips (one in ~2^29
// crosses a float32 rounding boundary), so this is what pins the
// operation-for-operation copy of math.Exp and math.tanh in a
// tier-1 run; TestActivationLanesExhaustive then proves the float32
// answers over every input.
func TestActivationCoresMatchFloat64(t *testing.T) {
	defer cpufeat.ForceForTest("avx2")()
	if !cpufeat.AVX2() {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(25))
	// logUniform draws ±e^u, u uniform in [lo, hi]: every scale at once.
	logUniform := func(lo, hi float64) float64 {
		return math.Copysign(math.Exp(lo+rng.Float64()*(hi-lo)), rng.Float64()-0.5)
	}
	const n = 1 << 18
	src := make([]float64, n)
	dst := make([]float64, n)

	for i := range src {
		switch i % 3 {
		case 0:
			src[i] = (rng.Float64()*2 - 1) * 700
		case 1:
			src[i] = logUniform(-40, math.Log(700))
		default:
			src[i] = (rng.Float64()*2 - 1) * 8
		}
	}
	copy(src, []float64{0, math.Copysign(0, -1), 700, -700, 1e-320, -1e-320, 708.3, -708.3})
	sigmoid64Asm(dst, src)
	for i, x := range src {
		if want := 1 / (1 + math.Exp(-x)); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("sigmoid core: x = %v (%#016x): %#016x, want %#016x", x, math.Float64bits(x), math.Float64bits(dst[i]), math.Float64bits(want))
		}
	}

	for i := range src {
		switch i % 3 {
		case 0:
			src[i] = (rng.Float64()*2 - 1) * 50
		case 1:
			src[i] = logUniform(-700, 700)
		default:
			src[i] = (rng.Float64()*2 - 1) * 0.7
		}
	}
	copy(src, []float64{0, math.Copysign(0, -1), 0.625, -0.625, math.Nextafter(0.625, 0), 44.014845965556525, 44.01484596555653,
		math.Inf(1), math.Inf(-1), math.MaxFloat64, 5e-324, -5e-324})
	tanh64Asm(dst, src)
	for i, x := range src {
		if want := math.Tanh(x); math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("tanh core: x = %v (%#016x): %#016x, want %#016x", x, math.Float64bits(x), math.Float64bits(dst[i]), math.Float64bits(want))
		}
	}
}
