package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a fully connected layer y = act(xW + b).
type Dense struct {
	W    *Tensor // (in, out)
	B    []float32
	Act  Activation
	Name string
}

// NewDense builds a dense layer with Xavier-scaled random weights.
func NewDense(rng *rand.Rand, in, out int, act Activation, name string) *Dense {
	return &Dense{
		W:    RandomTensor(rng, in, out, 1/math.Sqrt(float64(in))),
		B:    make([]float32, out),
		Act:  act,
		Name: name,
	}
}

// Forward applies the layer to (T, in) producing (T, out).
func (d *Dense) Forward(x *Tensor) *Tensor {
	out := MatMul(x, d.W)
	out.AddBias(d.B)
	if d.Act != nil {
		out.Apply(d.Act)
	}
	return out
}

// Conv1D is a standard 1-D convolution over (T, inCh) with 'same'
// zero padding and configurable stride.
type Conv1D struct {
	// W[k] is the (inCh, outCh) weight slice for kernel offset k.
	W      []*Tensor
	B      []float32
	Kernel int
	Stride int
	Act    Activation
	Name   string
}

// NewConv1D builds a convolution with Xavier-scaled random weights.
func NewConv1D(rng *rand.Rand, inCh, outCh, kernel, stride int, act Activation, name string) *Conv1D {
	if kernel <= 0 || stride <= 0 {
		panic("nn: non-positive conv geometry")
	}
	w := make([]*Tensor, kernel)
	scale := 1 / math.Sqrt(float64(inCh*kernel))
	for k := range w {
		w[k] = RandomTensor(rng, inCh, outCh, scale)
	}
	return &Conv1D{W: w, B: make([]float32, outCh), Kernel: kernel, Stride: stride, Act: act, Name: name}
}

// OutLen reports the output length for an input of length t.
func (c *Conv1D) OutLen(t int) int {
	if t <= 0 {
		return 0
	}
	return (t + c.Stride - 1) / c.Stride
}

// Forward applies the convolution to (T, inCh) producing (OutLen(T), outCh).
func (c *Conv1D) Forward(x *Tensor) *Tensor {
	inCh := c.W[0].Rows
	outCh := c.W[0].Cols
	if x.Cols != inCh {
		panic(fmt.Sprintf("nn: %s: input channels %d, want %d", c.Name, x.Cols, inCh))
	}
	outLen := c.OutLen(x.Rows)
	out := NewTensor(outLen, outCh)
	for o := 0; o < outLen; o++ {
		copy(out.Row(o), c.B)
	}
	// One accumulate per kernel offset over every output row whose
	// tap lands inside the input: each output element still sees its
	// offsets, and the channels inside an offset, in ascending order.
	for k := 0; k < c.Kernel; k++ {
		lo, hi, t0 := tapRange(k, c.Kernel, c.Stride, x.Rows, outLen)
		if lo >= hi {
			continue
		}
		accRows(out.Data[lo*outCh:], outCh, x.Data[t0*inCh:], c.Stride*inCh, c.W[k].Data, outCh, hi-lo, inCh, outCh)
	}
	if c.Act != nil {
		out.Apply(c.Act)
	}
	return out
}

// tapRange returns the output rows [lo, hi) of a 'same'-padded
// convolution whose tap at kernel offset k reads a real input row,
// 0 <= o*stride + k - half < inLen, and the input row t0 that output
// row lo reads (each next output row reads stride rows further on).
func tapRange(k, kernel, stride, inLen, outLen int) (lo, hi, t0 int) {
	shift := k - (kernel-1)/2
	if shift < 0 {
		lo = (-shift + stride - 1) / stride
	}
	hi = outLen
	if last := inLen - 1 - shift; last < 0 {
		hi = 0
	} else if last/stride+1 < hi {
		hi = last/stride + 1
	}
	return lo, hi, lo*stride + shift
}

// SeparableConv1D is a depthwise convolution followed by a pointwise
// (1x1) convolution — the building block of Bonito's CNN.
type SeparableConv1D struct {
	// Depth[k][ch] is the depthwise weight at kernel offset k, channel ch.
	Depth  [][]float32
	Point  *Tensor // (inCh, outCh)
	B      []float32
	Kernel int
	Stride int
	Act    Activation
	Name   string
}

// NewSeparableConv1D builds a separable convolution.
func NewSeparableConv1D(rng *rand.Rand, inCh, outCh, kernel, stride int, act Activation, name string) *SeparableConv1D {
	depth := make([][]float32, kernel)
	scale := 1 / math.Sqrt(float64(kernel))
	for k := range depth {
		depth[k] = make([]float32, inCh)
		for ch := range depth[k] {
			depth[k][ch] = float32((rng.Float64()*2 - 1) * scale)
		}
	}
	return &SeparableConv1D{
		Depth:  depth,
		Point:  RandomTensor(rng, inCh, outCh, 1/math.Sqrt(float64(inCh))),
		B:      make([]float32, outCh),
		Kernel: kernel,
		Stride: stride,
		Act:    act,
		Name:   name,
	}
}

// OutLen reports the output length for an input of length t.
func (c *SeparableConv1D) OutLen(t int) int {
	if t <= 0 {
		return 0
	}
	return (t + c.Stride - 1) / c.Stride
}

// Forward applies depthwise then pointwise convolution.
func (c *SeparableConv1D) Forward(x *Tensor) *Tensor {
	inCh := len(c.Depth[0])
	if x.Cols != inCh {
		panic(fmt.Sprintf("nn: %s: input channels %d, want %d", c.Name, x.Cols, inCh))
	}
	outLen := c.OutLen(x.Rows)
	mid := NewTensor(outLen, inCh)
	for k := 0; k < c.Kernel; k++ {
		lo, hi, t0 := tapRange(k, c.Kernel, c.Stride, x.Rows, outLen)
		if lo >= hi {
			continue
		}
		mulAccRows(mid.Data[lo*inCh:], inCh, x.Data[t0*inCh:], c.Stride*inCh, c.Depth[k], hi-lo, inCh)
	}
	out := MatMul(mid, c.Point)
	out.AddBias(c.B)
	if c.Act != nil {
		out.Apply(c.Act)
	}
	return out
}

// LSTM is a single-direction LSTM layer over a sequence.
type LSTM struct {
	// Gate weights: Wx (in, 4*hidden), Wh (hidden, 4*hidden), bias 4*hidden.
	// Gate order: input, forget, cell, output.
	Wx, Wh *Tensor
	B      []float32
	Hidden int
	Name   string
}

// NewLSTM builds an LSTM with Xavier-scaled random weights and a +1
// forget-gate bias (standard practice).
func NewLSTM(rng *rand.Rand, in, hidden int, name string) *LSTM {
	l := &LSTM{
		Wx:     RandomTensor(rng, in, 4*hidden, 1/math.Sqrt(float64(in))),
		Wh:     RandomTensor(rng, hidden, 4*hidden, 1/math.Sqrt(float64(hidden))),
		B:      make([]float32, 4*hidden),
		Hidden: hidden,
		Name:   name,
	}
	for i := hidden; i < 2*hidden; i++ {
		l.B[i] = 1
	}
	return l
}

// Forward runs the LSTM over (T, in) producing hidden states (T, hidden).
// reverse processes the sequence back-to-front (for the bidirectional
// wrapper).
func (l *LSTM) Forward(x *Tensor, reverse bool) *Tensor {
	T := x.Rows
	H, G := l.Hidden, 4*l.Hidden
	h := make([]float32, H)
	c := make([]float32, H)
	gates := make([]float32, G)
	out := NewTensor(T, H)
	for step := 0; step < T; step++ {
		t := step
		if reverse {
			t = T - 1 - step
		}
		copy(gates, l.B)
		accRows(gates, G, x.Row(t), x.Cols, l.Wx.Data, G, 1, x.Cols, G)
		accRows(gates, G, h, H, l.Wh.Data, G, 1, H, G)
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

// BiLSTM runs forward and backward LSTMs and concatenates their hidden
// states, as in Clair's bidirectional layers.
type BiLSTM struct {
	Fwd, Bwd *LSTM
	Name     string
}

// NewBiLSTM builds a bidirectional LSTM pair.
func NewBiLSTM(rng *rand.Rand, in, hidden int, name string) *BiLSTM {
	return &BiLSTM{
		Fwd:  NewLSTM(rng, in, hidden, name+".fwd"),
		Bwd:  NewLSTM(rng, in, hidden, name+".bwd"),
		Name: name,
	}
}

// Forward produces (T, 2*hidden).
func (b *BiLSTM) Forward(x *Tensor) *Tensor {
	f := b.Fwd.Forward(x, false)
	r := b.Bwd.Forward(x, true)
	out := NewTensor(x.Rows, f.Cols+r.Cols)
	for t := 0; t < x.Rows; t++ {
		copy(out.Row(t)[:f.Cols], f.Row(t))
		copy(out.Row(t)[f.Cols:], r.Row(t))
	}
	return out
}

// BatchNorm applies per-channel normalization with learned scale/shift
// (inference form: running statistics folded into scale/shift).
type BatchNorm struct {
	Scale, Shift []float32
	Name         string
}

// NewBatchNorm builds an inference-mode batch norm with near-identity
// parameters perturbed per channel.
func NewBatchNorm(rng *rand.Rand, channels int, name string) *BatchNorm {
	bn := &BatchNorm{
		Scale: make([]float32, channels),
		Shift: make([]float32, channels),
		Name:  name,
	}
	for i := 0; i < channels; i++ {
		bn.Scale[i] = float32(0.8 + rng.Float64()*0.4)
		bn.Shift[i] = float32((rng.Float64() - 0.5) * 0.2)
	}
	return bn
}

// Forward applies the normalization in place and returns x.
func (bn *BatchNorm) Forward(x *Tensor) *Tensor {
	if x.Cols != len(bn.Scale) {
		panic(fmt.Sprintf("nn: %s: channels %d, want %d", bn.Name, x.Cols, len(bn.Scale)))
	}
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		for c := range row {
			row[c] = row[c]*bn.Scale[c] + bn.Shift[c]
		}
	}
	return x
}
