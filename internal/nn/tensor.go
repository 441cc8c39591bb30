// Package nn is a minimal neural-network inference library built for
// the suite's two network kernels: nn-base (a Bonito-style separable
// convolution basecaller) and nn-variant (a Clair-style bidirectional
// LSTM variant caller). It implements exactly the layer set those
// models need — dense matrix multiply, 1-D and depthwise-separable
// convolutions, LSTM cells, batch norm, activations and CTC decoding —
// in float32 with deterministic seeded initialization.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major 2-D float32 matrix (rows x cols). The
// sequence dimension is rows; feature channels are cols.
type Tensor struct {
	Rows, Cols int
	Data       []float32
}

// NewTensor allocates a zeroed rows x cols tensor.
func NewTensor(rows, cols int) *Tensor {
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a view of row r.
func (t *Tensor) Row(r int) []float32 { return t.Data[r*t.Cols : (r+1)*t.Cols] }

// RandomTensor fills a tensor with scaled uniform weights in
// [-scale, scale], Xavier-style when scale = 1/sqrt(fanIn).
func RandomTensor(rng *rand.Rand, rows, cols int, scale float64) *Tensor {
	t := NewTensor(rows, cols)
	for i := range t.Data {
		t.Data[i] = float32((rng.Float64()*2 - 1) * scale)
	}
	return t
}

// MatMul computes a @ b. Shapes must agree as (m,k)x(k,n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMul shape mismatch (%d,%d)x(%d,%d)", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewTensor(a.Rows, b.Cols)
	accRows(out.Data, out.Cols, a.Data, a.Cols, b.Data, b.Cols, a.Rows, a.Cols, b.Cols)
	return out
}

// AddBias adds a length-Cols bias vector to every row in place.
func (t *Tensor) AddBias(bias []float32) {
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
func (t *Tensor) Apply(f Activation) *Tensor {
	f(t.Data, t.Data)
	return t
}

// Softmax normalizes each row into a probability distribution in place.
func (t *Tensor) Softmax() *Tensor {
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
