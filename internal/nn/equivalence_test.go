package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/scratch"
)

// A kernel-1, stride-1 convolution is exactly a dense layer applied per
// time step.
func TestConv1x1EqualsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv1D(rng, 8, 6, 1, 1, nil, "c1")
	w := clone(*conv.W[0])
	dense := &Dense{W: &w, B: append([]float32(nil), conv.B...), Name: "d"}
	x := RandomTensor(rng, 20, 8, 1)
	yc := conv.Forward(x, scratch.New())
	yd := dense.Forward(x, scratch.New())
	if yc.Rows != yd.Rows || yc.Cols != yd.Cols {
		t.Fatalf("shape mismatch (%d,%d) vs (%d,%d)", yc.Rows, yc.Cols, yd.Rows, yd.Cols)
	}
	for i := range yc.Data {
		if math.Abs(float64(yc.Data[i]-yd.Data[i])) > 1e-5 {
			t.Fatalf("element %d: conv %v dense %v", i, yc.Data[i], yd.Data[i])
		}
	}
}

// A separable convolution with an identity pointwise stage equals the
// depthwise stage alone; with identity depthwise taps it equals a
// dense layer.
func TestSeparableConvIdentityPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const ch = 5
	sep := NewSeparableConv1D(rng, ch, ch, 3, 1, nil, "sep")
	// Identity pointwise.
	for r := 0; r < ch; r++ {
		for c := 0; c < ch; c++ {
			v := float32(0)
			if r == c {
				v = 1
			}
			sep.Point.Row(r)[c] = v
		}
	}
	for c := range sep.B {
		sep.B[c] = 0
	}
	x := RandomTensor(rng, 15, ch, 1)
	y := sep.Forward(x, scratch.New())
	// Manual depthwise computation.
	for o := 0; o < y.Rows; o++ {
		for chI := 0; chI < ch; chI++ {
			var want float32
			for k := 0; k < 3; k++ {
				tIdx := o + k - 1
				if tIdx < 0 || tIdx >= x.Rows {
					continue
				}
				want += x.Row(tIdx)[chI] * sep.Depth[k][chI]
			}
			if math.Abs(float64(y.Row(o)[chI]-want)) > 1e-5 {
				t.Fatalf("(%d,%d): got %v want %v", o, chI, y.Row(o)[chI], want)
			}
		}
	}
}

// LSTM state stays bounded regardless of input magnitude (gates
// saturate) — a stability property the variant caller depends on.
func TestLSTMBoundedUnderExtremeInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLSTM(rng, 4, 6, "lstm")
	x := NewTensor(50, 4)
	for i := range x.Data {
		x.Data[i] = float32((rng.Float64() - 0.5) * 1e6)
	}
	y := l.Forward(x, false, scratch.New())
	for _, v := range y.Data {
		if v < -1 || v > 1 || math.IsNaN(float64(v)) {
			t.Fatalf("hidden state %v escaped [-1,1]", v)
		}
	}
}

// Softmax is invariant to additive shifts of a row (numerical
// stability path must not change results).
func TestSoftmaxShiftInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandomTensor(rng, 4, 6, 2)
	b := clone(a)
	for r := 0; r < b.Rows; r++ {
		row := b.Row(r)
		for c := range row {
			row[c] += 1000
		}
	}
	a.Softmax()
	b.Softmax()
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > 1e-5 {
			t.Fatalf("element %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}
