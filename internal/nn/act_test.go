package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/scratch"
)

// activations pairs each slice kernel with the scalar function that
// defines its answers.
var activations = []struct {
	name  string
	slice Activation
	ref   func(float32) float32
}{
	{"sigmoid", SigmoidSlice, Sigmoid},
	{"tanh", TanhSlice, Tanh},
	{"swish", SwishSlice, Swish},
}

// checkActivations runs every slice kernel over src, into a separate
// dst and in place, and fails at the first output whose bits differ
// from the scalar function's — NaN payloads included.
func checkActivations(t testing.TB, what string, src []float32) {
	t.Helper()
	dst := make([]float32, len(src))
	in := make([]float32, len(src))
	for _, a := range activations {
		a.slice(dst, src)
		copy(in, src)
		a.slice(in, in)
		for i, x := range src {
			want := math.Float32bits(a.ref(x))
			if got := math.Float32bits(dst[i]); got != want {
				t.Fatalf("%s %s: x = %#08x (%g), element %d of %d: %#08x, want %#08x",
					a.name, what, math.Float32bits(x), x, i, len(src), got, want)
			}
			if got := math.Float32bits(in[i]); got != want {
				t.Fatalf("%s %s in place: x = %#08x (%g), element %d of %d: %#08x, want %#08x",
					a.name, what, math.Float32bits(x), x, i, len(src), got, want)
			}
		}
	}
}

// activationEdges are the magnitudes where a kernel changes what it
// does or where an answer changes character: 0 and the least normal
// (subnormal inputs), tanh's two branch points, the redo bound, where
// math.Exp overflows (709.78) and flushes to 0 (745.13), and where
// sigmoid and swish results turn subnormal and then 0.
var activationEdges = []float32{0, 0x1p-126, 0.625, 44.014845965556525, 87.33655, 103.27893, 700, 709.782712893384, 745.1332}

// TestActivationLanesMatchScalar is the exactness gate of the
// activation lanes on each tier: every float32 within 4096 ulps of an
// edge, both signs; ±Inf and NaNs with payloads; a strided sweep of
// all 2^32 bit patterns; every length 0-9 (the tail after the last
// group of four) with specials at every position.
func TestActivationLanesMatchScalar(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		var near []float32
		for _, e := range activationEdges {
			b := math.Float32bits(e)
			lo := b - min(b, 4096)
			for v := lo; v <= b+4096; v++ {
				near = append(near, math.Float32frombits(v), math.Float32frombits(v|1<<31))
			}
		}
		checkActivations(t, "near edges", near)

		specials := []float32{
			float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32, -math.MaxFloat32,
			math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
			math.Float32frombits(0x7f800001), math.Float32frombits(0xff812345), // signalling
			math.Float32frombits(0x7fc54321), math.Float32frombits(0xffffffff),
		}
		checkActivations(t, "specials", specials)

		const stride = 1021
		chunk := make([]float32, 0, 1<<16)
		for b := uint64(0); b < 1<<32; b += stride {
			chunk = append(chunk, math.Float32frombits(uint32(b)))
			if len(chunk) == cap(chunk) {
				checkActivations(t, "strided", chunk)
				chunk = chunk[:0]
			}
		}
		checkActivations(t, "strided", chunk)

		pool := append([]float32{0.3, -2, 701, 1e-40, -800, 44.5, -0.7, 5}, specials...)
		for n := 0; n <= 9; n++ {
			for start := range pool {
				src := make([]float32, n)
				for i := range src {
					src[i] = pool[(start+i)%len(pool)]
				}
				checkActivations(t, fmt.Sprintf("length %d", n), src)
			}
		}
	})
}

// FuzzActivations checks the slice kernels against the scalar
// functions, on the dispatched tier, around one bit pattern: nine
// lanes, so two whole groups of four and a scalar tail, holding the
// pattern, its negation and neighbours. Seeds: testdata/fuzz.
func FuzzActivations(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits uint32) {
		src := make([]float32, 9)
		for i, b := range []uint32{bits, bits ^ 1<<31, bits + 1, bits - 1, bits >> 1, bits << 1, ^bits, bits * 2654435761, bits + 4096} {
			src[i] = math.Float32frombits(b)
		}
		checkActivations(t, fmt.Sprintf("around %#08x", bits), src)
	})
}

// On a warm arena every layer's forward pass allocates nothing: its
// output and working buffers come from the arena, the activations run
// in place and tanh(c) reuses the LSTM's gate buffer.
func TestLayerAllocsBounded(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(24))
		x := RandomTensor(rng, 40, 32, 1)
		d := NewDense(rng, 32, 48, ReLUSlice, "d")
		l := NewLSTM(rng, 32, 32, "l")
		bi := NewBiLSTM(rng, 32, 32, "bi")
		c := NewConv1D(rng, 32, 32, 9, 1, SwishSlice, "c")
		s := NewSeparableConv1D(rng, 32, 32, 9, 1, SwishSlice, "s")
		a := scratch.New()
		for _, layer := range []struct {
			name string
			fwd  func()
		}{
			{"Dense", func() { d.Forward(x, a) }},
			{"LSTM", func() { l.Forward(x, false, a) }},
			{"BiLSTM", func() { bi.Forward(x, a) }},
			{"Conv1D", func() { c.Forward(x, a) }},
			{"SeparableConv1D", func() { s.Forward(x, a) }},
		} {
			// AllocsPerRun's warm-up call grows the arena.
			if n := testing.AllocsPerRun(20, func() { a.Reset(); layer.fwd() }); n != 0 {
				t.Errorf("%s.Forward: %v allocs on a warm arena, want 0", layer.name, n)
			}
		}
	})
}

// Micro pairs: ns per element of each activation on pre-activation
// sized inputs, AVX2 lanes against the scalar functions.
func BenchmarkActivations(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float32, 4096)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 3)
	}
	dst := make([]float32, len(src))
	for _, a := range activations {
		for _, tier := range []string{"avx2", "off"} {
			b.Run(fmt.Sprintf("%s/tier=%s", a.name, tier), func(b *testing.B) {
				defer cpufeat.ForceForTest(tier)()
				if tier == "avx2" && !(haveActAsm && cpufeat.AVX2()) {
					b.Skip("no AVX2 on this host")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.slice(dst, src)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/element")
			})
		}
	}
}
