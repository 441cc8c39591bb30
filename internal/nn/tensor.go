// Package nn is a minimal neural-network inference library built for
// the suite's two network kernels: nn-base (a Bonito-style separable
// convolution basecaller) and nn-variant (a Clair-style bidirectional
// LSTM variant caller). It implements exactly the layer set those
// models need — dense matrix multiply, 1-D and depthwise-separable
// convolutions, LSTM cells, batch norm, activations and CTC decoding —
// in float32 with deterministic seeded initialization.
//
// Every layer's forward pass draws its output and working buffers from
// a caller-supplied scratch.Arena, the per-worker arena of the suite's
// task loop, so a warm arena runs a whole network without allocating.
// Arena buffers come back stale: a layer sets every element it reads,
// filling a convolution's rows with the bias and clearing any tensor
// it accumulates into.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/scratch"
)

// Tensor is a dense row-major 2-D float32 matrix (rows x cols). The
// sequence dimension is rows; feature channels are cols. Like a slice,
// it is a header passed by value: copies share Data.
type Tensor struct {
	Rows, Cols int
	Data       []float32
}

// NewTensor allocates a zeroed rows x cols tensor.
func NewTensor(rows, cols int) Tensor {
	return Tensor{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// NewTensorIn draws a rows x cols tensor from a. Its contents are
// stale: the caller sets every element it reads.
func NewTensorIn(a *scratch.Arena, rows, cols int) Tensor {
	return Tensor{Rows: rows, Cols: cols, Data: a.Float32s(rows * cols)}
}

// Row returns a view of row r.
func (t Tensor) Row(r int) []float32 { return t.Data[r*t.Cols : (r+1)*t.Cols] }

// RandomTensor fills a tensor with scaled uniform weights in
// [-scale, scale], Xavier-style when scale = 1/sqrt(fanIn).
func RandomTensor(rng *rand.Rand, rows, cols int, scale float64) Tensor {
	t := NewTensor(rows, cols)
	for i := range t.Data {
		t.Data[i] = float32((rng.Float64()*2 - 1) * scale)
	}
	return t
}

// MatMul computes x @ w into a tensor drawn from a. Shapes must agree
// as (m,k)x(k,n).
func MatMul(x, w Tensor, a *scratch.Arena) Tensor {
	if x.Cols != w.Rows {
		panic(fmt.Sprintf("nn: MatMul shape mismatch (%d,%d)x(%d,%d)", x.Rows, x.Cols, w.Rows, w.Cols))
	}
	out := NewTensorIn(a, x.Rows, w.Cols)
	clear(out.Data)
	accRows(out.Data, out.Cols, x.Data, x.Cols, w.Data, w.Cols, x.Rows, x.Cols, w.Cols)
	return out
}

// AddBias adds a length-Cols bias vector to every row in place.
func (t Tensor) AddBias(bias []float32) {
	if len(bias) != t.Cols {
		panic("nn: bias length mismatch")
	}
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)
		for c := range row {
			row[c] += bias[c]
		}
	}
}

// Apply maps the activation over the tensor in place and returns it.
func (t Tensor) Apply(f Activation) Tensor {
	f(t.Data, t.Data)
	return t
}

// Softmax normalizes each row into a probability distribution in place.
func (t Tensor) Softmax() Tensor {
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float32
		for c, v := range row {
			e := float32(math.Exp(float64(v - maxV)))
			row[c] = e
			sum += e
		}
		for c := range row {
			row[c] /= sum
		}
	}
	return t
}
