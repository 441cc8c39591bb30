package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/scratch"
)

// forEachTier runs f once with the SIMD ceiling forced to "off" (the
// portable bodies) and once forced to "avx2" (the assembly bodies),
// skipping the second when the host has no AVX2 to force.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range []string{"off", "avx2"} {
		t.Run(tier, func(t *testing.T) {
			restore := cpufeat.ForceForTest(tier)
			defer restore()
			if tier == "avx2" && !(haveAccAsm && cpufeat.AVX2()) {
				t.Skip("no AVX2 on this host")
			}
			f(t)
		})
	}
}

// sameBits is the identity the tiers promise: equal bit patterns, or
// a NaN on both sides (which payload a commutative operation forwards
// is the compiler's choice, see accum.go).
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

func diffAt(got, want []float32) int {
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// accRowsNaive is the reference triple loop: one scalar accumulator
// per output element, k ascending, zeros of a skipped, the product
// rounded before the add.
func accRowsNaive(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, rows, kk, n int) {
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			acc := dst[i*ldd+j]
			for k := 0; k < kk; k++ {
				av := a[i*lda+k]
				if av == 0 {
					continue
				}
				acc += float32(av * b[k*ldb+j])
			}
			dst[i*ldd+j] = acc
		}
	}
}

func mulAccRowsNaive(dst []float32, ldd int, x []float32, ldx int, y []float32, rows, n int) {
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			dst[i*ldd+j] += float32(x[i*ldx+j] * y[j])
		}
	}
}

var negZero = float32(math.Copysign(0, -1))

// hammerFill draws values that exercise every rule of the contract:
// ordinary magnitudes, both zeros (the skip), subnormals (no flush to
// zero on any tier), huge values (overflow to Inf inside the sum),
// infinities and NaN (0*Inf must not appear where a zero was skipped).
// special is the per-element probability of a non-ordinary draw.
func hammerFill(rng *rand.Rand, v []float32, special float64) {
	for i := range v {
		if rng.Float64() >= special {
			v[i] = float32(rng.NormFloat64())
			continue
		}
		switch rng.Intn(9) {
		case 0, 1:
			v[i] = 0
		case 2:
			v[i] = negZero
		case 3:
			v[i] = math.Float32frombits(uint32(1 + rng.Intn(1<<20))) // subnormal
		case 4:
			v[i] = -math.Float32frombits(uint32(1 + rng.Intn(1<<20)))
		case 5:
			v[i] = float32(math.Inf(1))
		case 6:
			v[i] = float32(math.Inf(-1))
		case 7:
			v[i] = float32(math.NaN())
		case 8:
			v[i] = float32((rng.Float64() - 0.5) * 6e38)
		}
	}
}

// TestAccRowsHammer is the differential at the dispatch edges: every
// column count 1..130 (all tail lengths around the 8/16/32/64-column
// tiles), k 0..70, 1..9 rows (all remainders of the 4-row tile),
// padded strides, and special values in a, B and the initial dst. The
// dispatched body must equal the naive loop and the portable body bit
// for bit, padding included.
func TestAccRowsHammer(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(20))
		for n := 1; n <= 130; n++ {
			for rows := 1; rows <= 9; rows++ {
				for _, kk := range []int{(n + 8*rows) % 71, rng.Intn(71), rng.Intn(71)} {
					special := []float64{0, 0.05, 0.3}[rng.Intn(3)]
					ldd, lda, ldb := n+rng.Intn(3), kk+rng.Intn(3), n+rng.Intn(3)
					a := make([]float32, rows*lda+1)
					b := make([]float32, kk*ldb+1)
					dst := make([]float32, rows*ldd)
					hammerFill(rng, a, special+0.2) // zeros in a are the skip: always some
					hammerFill(rng, b, special)
					hammerFill(rng, dst, special)
					want := append([]float32(nil), dst...)
					port := append([]float32(nil), dst...)
					accRowsNaive(want, ldd, a, lda, b, ldb, rows, kk, n)
					accRowsPortable(port, ldd, a, lda, b, ldb, rows, kk, n)
					accRows(dst, ldd, a, lda, b, ldb, rows, kk, n)
					if i := diffAt(port, want); i >= 0 {
						t.Fatalf("portable vs naive: n=%d k=%d rows=%d: dst[%d] = %x, want %x",
							n, kk, rows, i, math.Float32bits(port[i]), math.Float32bits(want[i]))
					}
					if i := diffAt(dst, want); i >= 0 {
						t.Fatalf("dispatched vs naive: n=%d k=%d rows=%d: dst[%d] (row %d col %d) = %x, want %x",
							n, kk, rows, i, i/ldd, i%ldd, math.Float32bits(dst[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
	})
}

func TestMulAccRowsHammer(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		for n := 1; n <= 130; n++ {
			for rows := 1; rows <= 5; rows++ {
				special := []float64{0, 0.05, 0.3}[rng.Intn(3)]
				ldd, ldx := n+rng.Intn(3), n+rng.Intn(3)
				x := make([]float32, rows*ldx)
				y := make([]float32, n)
				dst := make([]float32, rows*ldd)
				hammerFill(rng, x, special)
				hammerFill(rng, y, special)
				hammerFill(rng, dst, special)
				want := append([]float32(nil), dst...)
				mulAccRowsNaive(want, ldd, x, ldx, y, rows, n)
				mulAccRows(dst, ldd, x, ldx, y, rows, n)
				if i := diffAt(dst, want); i >= 0 {
					t.Fatalf("n=%d rows=%d: dst[%d] = %x, want %x",
						n, rows, i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
				}
			}
		}
	})
}

// The microkernel is called once per LSTM step and once per kernel
// offset: it must not allocate on either tier.
func TestAccumulateZeroAlloc(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(22))
		a := RandomTensor(rng, 5, 33, 1)
		b := RandomTensor(rng, 33, 77, 1)
		dst := NewTensor(5, 77)
		if n := testing.AllocsPerRun(50, func() {
			accRows(dst.Data, 77, a.Data, 33, b.Data, 77, 5, 33, 77)
			mulAccRows(dst.Data, 77, b.Data, 77, b.Row(0), 5, 77)
		}); n != 0 {
			t.Fatalf("%v allocs per accumulate, want 0", n)
		}
	})
}

// ---- whole-layer differentials ----
//
// The scalar Forward bodies the microkernel and the activation lanes
// replaced, kept here as references: each applies its layer's scalar
// activation one element at a time. Their products carry the float32
// conversion so that they stay fusion-free on arm64; on amd64 that is
// exactly what the old loops compiled to.

func matMulScalar(a, b Tensor) Tensor {
	out := NewTensor(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += float32(av * brow[j])
			}
		}
	}
	return out
}

func applyScalar(t Tensor, act func(float32) float32) {
	for i, v := range t.Data {
		t.Data[i] = act(v)
	}
}

func denseForwardScalar(d *Dense, act func(float32) float32, x Tensor) Tensor {
	out := matMulScalar(x, *d.W)
	out.AddBias(d.B)
	applyScalar(out, act)
	return out
}

func conv1DForwardScalar(c *Conv1D, act func(float32) float32, x Tensor) Tensor {
	inCh := c.W[0].Rows
	outCh := c.W[0].Cols
	outLen := c.OutLen(x.Rows)
	out := NewTensor(outLen, outCh)
	half := (c.Kernel - 1) / 2
	for o := 0; o < outLen; o++ {
		center := o * c.Stride
		orow := out.Row(o)
		copy(orow, c.B)
		for k := 0; k < c.Kernel; k++ {
			tIdx := center + k - half
			if tIdx < 0 || tIdx >= x.Rows {
				continue
			}
			xrow := x.Row(tIdx)
			wk := c.W[k]
			for ic := 0; ic < inCh; ic++ {
				xv := xrow[ic]
				if xv == 0 {
					continue
				}
				wrow := wk.Row(ic)
				for oc := range orow {
					orow[oc] += float32(xv * wrow[oc])
				}
			}
		}
		for oc := range orow {
			orow[oc] = act(orow[oc])
		}
	}
	return out
}

func sepConvForwardScalar(c *SeparableConv1D, act func(float32) float32, x Tensor) Tensor {
	inCh := len(c.Depth[0])
	outLen := c.OutLen(x.Rows)
	mid := NewTensor(outLen, inCh)
	half := (c.Kernel - 1) / 2
	for o := 0; o < outLen; o++ {
		center := o * c.Stride
		mrow := mid.Row(o)
		for k := 0; k < c.Kernel; k++ {
			tIdx := center + k - half
			if tIdx < 0 || tIdx >= x.Rows {
				continue
			}
			xrow := x.Row(tIdx)
			dk := c.Depth[k]
			for ch := range mrow {
				mrow[ch] += float32(xrow[ch] * dk[ch])
			}
		}
	}
	out := matMulScalar(mid, *c.Point)
	out.AddBias(c.B)
	applyScalar(out, act)
	return out
}

func lstmForwardScalar(l *LSTM, x Tensor, reverse bool) Tensor {
	T := x.Rows
	h := make([]float32, l.Hidden)
	c := make([]float32, l.Hidden)
	gates := make([]float32, 4*l.Hidden)
	out := NewTensor(T, l.Hidden)
	for step := 0; step < T; step++ {
		t := step
		if reverse {
			t = T - 1 - step
		}
		xrow := x.Row(t)
		copy(gates, l.B)
		for i, xv := range xrow {
			if xv == 0 {
				continue
			}
			wrow := l.Wx.Row(i)
			for g := range gates {
				gates[g] += float32(xv * wrow[g])
			}
		}
		for i, hv := range h {
			if hv == 0 {
				continue
			}
			wrow := l.Wh.Row(i)
			for g := range gates {
				gates[g] += float32(hv * wrow[g])
			}
		}
		H := l.Hidden
		orow := out.Row(t)
		for j := 0; j < H; j++ {
			ig := Sigmoid(gates[j])
			fg := Sigmoid(gates[H+j])
			cg := Tanh(gates[2*H+j])
			og := Sigmoid(gates[3*H+j])
			c[j] = fg*c[j] + ig*cg
			h[j] = og * Tanh(c[j])
			orow[j] = h[j]
		}
	}
	return out
}

// sparseTensor is a random tensor with about a third of its entries
// exactly zero, like a ReLU output or a pileup encoding.
func sparseTensor(rng *rand.Rand, rows, cols int) Tensor {
	t := RandomTensor(rng, rows, cols, 1)
	for i := range t.Data {
		if rng.Intn(3) == 0 {
			t.Data[i] = 0
		}
	}
	return t
}

func requireSameTensor(t *testing.T, what string, got, want Tensor) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape (%d,%d), want (%d,%d)", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if i := diffAt(got.Data, want.Data); i >= 0 {
		t.Fatalf("%s: element %d (row %d col %d) = %x, want %x", what, i, i/got.Cols, i%got.Cols,
			math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
	}
}

func TestLayersDifferential(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(23))
		// Every layer runs on one arena, reset before each call, so
		// each draws the buffers the previous layer left dirty.
		arena := scratch.New()
		dirty := func() *scratch.Arena { arena.Reset(); return arena }
		for _, T := range []int{1, 2, 5, 40} {
			for _, ch := range [][2]int{{1, 32}, {3, 5}, {8, 33}, {32, 32}, {7, 64}} {
				in, out := ch[0], ch[1]
				x := sparseTensor(rng, T, in)
				if T == 5 {
					// Pre-activations past ±700: the lanes sweep redoes.
					for i := range x.Data {
						x.Data[i] *= 3000
					}
				}
				what := fmt.Sprintf("T=%d in=%d out=%d", T, in, out)

				d := NewDense(rng, in, out, SwishSlice, "d")
				hammerFill(rng, d.B, 0)
				requireSameTensor(t, "MatMul "+what, MatMul(x, *d.W, dirty()), matMulScalar(x, *d.W))
				requireSameTensor(t, "Dense "+what, d.Forward(x, dirty()), denseForwardScalar(d, Swish, x))

				for _, kernel := range []int{1, 2, 3, 9} {
					for _, stride := range []int{1, 2, 3} {
						geo := fmt.Sprintf("%s kernel=%d stride=%d", what, kernel, stride)
						c := NewConv1D(rng, in, out, kernel, stride, SwishSlice, "c")
						hammerFill(rng, c.B, 0)
						requireSameTensor(t, "Conv1D "+geo, c.Forward(x, dirty()), conv1DForwardScalar(c, Swish, x))
						s := NewSeparableConv1D(rng, in, out, kernel, stride, SwishSlice, "s")
						hammerFill(rng, s.B, 0)
						requireSameTensor(t, "SeparableConv1D "+geo, s.Forward(x, dirty()), sepConvForwardScalar(s, Swish, x))
					}
				}

				for _, hidden := range []int{1, 6, 32} {
					l := NewLSTM(rng, in, hidden, "l")
					for _, reverse := range []bool{false, true} {
						geo := fmt.Sprintf("%s hidden=%d reverse=%v", what, hidden, reverse)
						requireSameTensor(t, "LSTM "+geo, l.Forward(x, reverse, dirty()), lstmForwardScalar(l, x, reverse))
					}
				}
			}
		}
	})
}

// ---- micro pairs: portable vs dispatched ----

func benchTiers(b *testing.B, macs int, f func()) {
	for _, tier := range []string{"portable", "dispatched"} {
		b.Run(tier, func(b *testing.B) {
			if tier == "portable" {
				defer cpufeat.ForceForTest("off")()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f()
			}
			b.ReportMetric(float64(macs)*float64(b.N)/b.Elapsed().Seconds(), "MACs/s")
		})
	}
}

// nn-base's pointwise stage: one 4000-sample chunk at stride 3 is
// 1334 rows of 32 channels.
func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandomTensor(rng, 1334, 32, 1)
	w := RandomTensor(rng, 32, 32, 1)
	a := scratch.New()
	benchTiers(b, 1334*32*32, func() { a.Reset(); MatMul(x, w, a) })
}

// nn-variant's recurrent layers: 33 positions, 32 features into the
// first layer and 64 into the second, 32 hidden units.
func BenchmarkLSTMForward(b *testing.B) {
	for _, in := range []int{32, 64} {
		rng := rand.New(rand.NewSource(1))
		l := NewLSTM(rng, in, 32, "l")
		x := RandomTensor(rng, 33, in, 1)
		a := scratch.New()
		b.Run(fmt.Sprintf("in%d", in), func(b *testing.B) {
			benchTiers(b, 33*(in+32)*128, func() { a.Reset(); l.Forward(x, false, a) })
		})
	}
}
