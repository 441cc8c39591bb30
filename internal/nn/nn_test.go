package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/scratch"
)

// clone deep-copies t.
func clone(t Tensor) Tensor {
	return Tensor{Rows: t.Rows, Cols: t.Cols, Data: append([]float32(nil), t.Data...)}
}

func TestMatMulKnown(t *testing.T) {
	a := NewTensor(2, 3)
	copy(a.Data, []float32{1, 2, 3, 4, 5, 6})
	b := NewTensor(3, 2)
	copy(b.Data, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b, scratch.New())
	want := []float32{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Errorf("c[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected shape panic")
		}
	}()
	MatMul(NewTensor(2, 3), NewTensor(2, 3), scratch.New())
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := RandomTensor(rng, 5, 7, 3)
	x.Softmax()
	for r := 0; r < x.Rows; r++ {
		var sum float64
		for _, v := range x.Row(r) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v out of [0,1]", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("row %d sums to %v", r, sum)
		}
	}
}

func TestActivations(t *testing.T) {
	if ReLU(-3) != 0 || ReLU(2) != 2 {
		t.Error("ReLU wrong")
	}
	if math.Abs(float64(Sigmoid(0))-0.5) > 1e-6 {
		t.Error("Sigmoid(0) != 0.5")
	}
	if Tanh(0) != 0 {
		t.Error("Tanh(0) != 0")
	}
	if Swish(0) != 0 {
		t.Error("Swish(0) != 0")
	}
}

func TestDenseShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(rng, 8, 4, ReLUSlice, "fc")
	x := RandomTensor(rng, 10, 8, 1)
	y := d.Forward(x, scratch.New())
	if y.Rows != 10 || y.Cols != 4 {
		t.Errorf("dense output (%d,%d)", y.Rows, y.Cols)
	}
	for _, v := range y.Data {
		if v < 0 {
			t.Fatal("ReLU output negative")
		}
	}
}

func TestConv1DIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := NewConv1D(rng, 1, 1, 1, 1, nil, "id")
	c.W[0].Row(0)[0] = 1
	c.B[0] = 0
	x := NewTensor(5, 1)
	for i := 0; i < 5; i++ {
		x.Row(i)[0] = float32(i)
	}
	y := c.Forward(x, scratch.New())
	for i := 0; i < 5; i++ {
		if y.Row(i)[0] != float32(i) {
			t.Errorf("identity conv y[%d] = %v", i, y.Row(i)[0])
		}
	}
}

func TestConv1DStrideHalvesLength(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewConv1D(rng, 4, 8, 5, 2, ReLUSlice, "down")
	x := RandomTensor(rng, 100, 4, 1)
	y := c.Forward(x, scratch.New())
	if y.Rows != 50 || y.Cols != 8 {
		t.Errorf("strided conv output (%d,%d), want (50,8)", y.Rows, y.Cols)
	}
}

func TestConv1DMovingAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewConv1D(rng, 1, 1, 3, 1, nil, "avg")
	for k := 0; k < 3; k++ {
		c.W[k].Row(0)[0] = 1.0 / 3
	}
	x := NewTensor(4, 1)
	for i := range x.Data {
		x.Data[i] = 3
	}
	y := c.Forward(x, scratch.New())
	// Interior positions see all three taps: 3; edges see two: 2.
	if math.Abs(float64(y.Row(1)[0])-3) > 1e-5 {
		t.Errorf("interior avg = %v", y.Row(1)[0])
	}
	if math.Abs(float64(y.Row(0)[0])-2) > 1e-5 {
		t.Errorf("edge avg = %v", y.Row(0)[0])
	}
}

func TestSeparableConvShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewSeparableConv1D(rng, 16, 32, 9, 3, SwishSlice, "sep")
	x := RandomTensor(rng, 99, 16, 1)
	y := c.Forward(x, scratch.New())
	if y.Rows != 33 || y.Cols != 32 {
		t.Errorf("separable conv output (%d,%d), want (33,32)", y.Rows, y.Cols)
	}
}

func TestLSTMShapesAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l := NewLSTM(rng, 6, 10, "lstm")
	x := RandomTensor(rand.New(rand.NewSource(9)), 20, 6, 1)
	y1 := l.Forward(x, false, scratch.New())
	y2 := l.Forward(x, false, scratch.New())
	if y1.Rows != 20 || y1.Cols != 10 {
		t.Fatalf("lstm output (%d,%d)", y1.Rows, y1.Cols)
	}
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("LSTM not deterministic")
		}
		if v := float64(y1.Data[i]); v < -1 || v > 1 {
			t.Fatalf("hidden state %v outside tanh range", v)
		}
	}
}

func TestLSTMReverseDiffers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l := NewLSTM(rng, 4, 8, "lstm")
	x := RandomTensor(rng, 12, 4, 1)
	fwd := l.Forward(x, false, scratch.New())
	rev := l.Forward(x, true, scratch.New())
	same := true
	for i := range fwd.Data {
		if fwd.Data[i] != rev.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("forward and reverse LSTM outputs identical")
	}
}

func TestBiLSTMConcats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBiLSTM(rng, 5, 7, "bi")
	x := RandomTensor(rng, 9, 5, 1)
	y := b.Forward(x, scratch.New())
	if y.Rows != 9 || y.Cols != 14 {
		t.Errorf("bilstm output (%d,%d), want (9,14)", y.Rows, y.Cols)
	}
}

func TestBatchNormAffine(t *testing.T) {
	bn := &BatchNorm{Scale: []float32{2}, Shift: []float32{1}, Name: "bn"}
	x := NewTensor(3, 1)
	x.Data = []float32{0, 1, 2}
	bn.Forward(x)
	want := []float32{1, 3, 5}
	for i := range want {
		if x.Data[i] != want[i] {
			t.Errorf("bn[%d] = %v, want %v", i, x.Data[i], want[i])
		}
	}
}

func TestCTCGreedyDecodeCollapses(t *testing.T) {
	// classes: blank, A, C, G, T
	p := NewTensor(6, 5)
	set := func(t_, c int) { p.Row(t_)[c] = 1 }
	set(0, 1) // A
	set(1, 1) // A (repeat, collapsed)
	set(2, 0) // blank
	set(3, 1) // A (new after blank)
	set(4, 2) // C
	set(5, 4) // T
	got := CTCGreedyDecode(nil, p)
	want := []byte{0, 0, 1, 3} // A A C T
	if len(got) != len(want) {
		t.Fatalf("decoded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decoded %v, want %v", got, want)
		}
	}
}

func TestCTCBeamMatchesGreedyOnPeakedDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := NewTensor(15, 5)
		for t_ := 0; t_ < p.Rows; t_++ {
			best := r.Intn(5)
			for c := 0; c < 5; c++ {
				if c == best {
					p.Row(t_)[c] = 0.9
				} else {
					p.Row(t_)[c] = 0.025
				}
			}
		}
		g := CTCGreedyDecode(nil, p)
		b := CTCBeamDecode(p, 8)
		if len(g) != len(b) {
			return false
		}
		for i := range g {
			if g[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i := 0; i < 20; i++ {
		if !f(rng.Int63()) {
			t.Fatal("beam decode diverges from greedy on peaked distribution")
		}
	}
}

func TestCTCBeamEmpty(t *testing.T) {
	p := NewTensor(3, 5)
	for t_ := 0; t_ < 3; t_++ {
		p.Row(t_)[0] = 1 // all blanks
	}
	if got := CTCBeamDecode(p, 4); len(got) != 0 {
		t.Errorf("all-blank decode = %v", got)
	}
}

func TestTensorCloneIndependence(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		x := Tensor{Rows: 1, Cols: len(vals), Data: append([]float32(nil), vals...)}
		orig := x.Data[0]
		y := clone(x)
		if y.Data[0] == 0 {
			y.Data[0] = 1
		} else {
			y.Data[0] = 0
		}
		return x.Data[0] == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
