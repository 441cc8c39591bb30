// Package nnbase implements the neural-network basecalling kernel
// modelled on Bonito: raw nanopore signal is split into fixed 4000-
// sample chunks, normalized, pushed through a stack of depthwise-
// separable 1-D convolutions with Swish activations, and decoded with
// CTC into bases; chunk outputs are stitched into the final read.
// Weights are seeded-random (training is out of scope for a
// performance benchmark suite); the computation, shapes and memory
// behaviour match the original. A SIMT lane program reproduces the
// kernel's GPU profile for the paper's Tables IV and V.
package nnbase

import (
	"math/rand"
	"slices"

	"repro/internal/genome"
	"repro/internal/nn"
	"repro/internal/scratch"
)

// ChunkSize is the paper's fixed signal chunk length.
const ChunkSize = 4000

// NumClasses is blank + 4 bases for CTC.
const NumClasses = 5

// Model is a Bonito-style separable convolution basecaller.
type Model struct {
	Stem   *nn.Conv1D
	Blocks []*nn.SeparableConv1D
	Norms  []*nn.BatchNorm
	Head   *nn.Dense
	// Stride is the cumulative downsampling factor.
	Stride int
}

// Config sets model geometry.
type Config struct {
	Channels  int // trunk width (Bonito uses 256-512)
	Blocks    int // separable conv blocks
	Kernel    int // depthwise kernel width
	BeamWidth int // CTC beam (1 = greedy)
}

// DefaultConfig is a scaled-down Bonito geometry that keeps CPU test
// times reasonable while preserving the op mix.
func DefaultConfig() Config {
	return Config{Channels: 64, Blocks: 5, Kernel: 9, BeamWidth: 1}
}

// NewModel builds a model with seeded random weights.
func NewModel(seed int64, cfg Config) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := &Model{
		Stem:   nn.NewConv1D(rng, 1, cfg.Channels, 9, 3, nn.SwishSlice, "stem"),
		Stride: 3,
	}
	for b := 0; b < cfg.Blocks; b++ {
		m.Blocks = append(m.Blocks, nn.NewSeparableConv1D(rng, cfg.Channels, cfg.Channels, cfg.Kernel, 1, nn.SwishSlice, "block"))
		m.Norms = append(m.Norms, nn.NewBatchNorm(rng, cfg.Channels, "bn"))
	}
	m.Head = nn.NewDense(rng, cfg.Channels, NumClasses, nil, "head")
	return m
}

// Normalize applies med/MAD normalization, Bonito's preprocessing,
// into one buffer drawn from a, which holds in turn the sort copy, the
// sorted deviations and the output. The signal must be finite:
// slices.Sort orders NaNs first, so a NaN would shift both medians.
func Normalize(signal []float32, a *scratch.Arena) []float32 {
	if len(signal) == 0 {
		return nil
	}
	buf := a.Float32s(len(signal))
	copy(buf, signal)
	slices.Sort(buf)
	med := buf[len(buf)/2]
	for i, v := range signal {
		d := v - med
		if d < 0 {
			d = -d
		}
		buf[i] = d
	}
	slices.Sort(buf)
	mad := buf[len(buf)/2]
	if mad == 0 {
		mad = 1
	}
	scale := 1 / (1.4826 * mad)
	for i, v := range signal {
		buf[i] = (v - med) * scale
	}
	return buf
}

// Forward runs the network on one normalized chunk, returning per-step
// class probabilities (rows = downsampled time). The chunk is the
// stem's input as it stands; every layer's output is drawn from a.
func (m *Model) Forward(chunk []float32, a *scratch.Arena) nn.Tensor {
	x := nn.Tensor{Rows: len(chunk), Cols: 1, Data: chunk}
	x = m.Stem.Forward(x, a)
	for i, blk := range m.Blocks {
		x = blk.Forward(x, a)
		x = m.Norms[i].Forward(x)
	}
	x = m.Head.Forward(x, a)
	return x.Softmax()
}

// Basecall splits signal into chunks, runs the network on each and
// stitches the decoded fragments. It returns the called sequence and
// the multiply-accumulate count performed.
//
// Basecall claims the arena: it calls a.Reset, so buffers handed out
// before the call are invalidated. It draws the normalized signal and
// one chunk's tensors from a, rewinding to reuse them for the next
// chunk. A nil arena allocates a temporary one; a task loop passes its
// worker's arena, which a warm worker reuses without allocating. The
// called sequence is the one allocation: the greedy decoder appends
// each chunk's symbols straight into it.
func (m *Model) Basecall(signal []float32, cfg Config, a *scratch.Arena) (genome.Seq, uint64) {
	if len(signal) == 0 {
		return nil, 0
	}
	if a == nil {
		a = scratch.New()
	}
	a.Reset()
	norm := Normalize(signal, a)
	chunks := a.Mark() // each chunk's tensors reuse the previous chunk's
	var called genome.Seq
	var macs uint64
	for start := 0; start < len(norm); start += ChunkSize {
		a.Rewind(chunks)
		end := start + ChunkSize
		if end > len(norm) {
			end = len(norm)
		}
		chunk := norm[start:end]
		if len(chunk) < m.Stem.Kernel {
			break
		}
		probs := m.Forward(chunk, a)
		macs += m.MACsPerChunk(len(chunk))
		if cfg.BeamWidth > 1 {
			called = append(called, nn.CTCBeamDecode(probs, cfg.BeamWidth)...)
		} else {
			called = nn.CTCGreedyDecode(called, probs)
		}
	}
	return called, macs
}

// MACsPerChunk estimates multiply-accumulates for a chunk of the given
// length — the Figure-5 work unit for nn-base.
func (m *Model) MACsPerChunk(chunkLen int) uint64 {
	t := uint64(m.Stem.OutLen(chunkLen))
	ch := uint64(len(m.Stem.B))
	macs := uint64(chunkLen/m.Stem.Stride) * uint64(m.Stem.Kernel) * ch
	for _, blk := range m.Blocks {
		macs += t * (uint64(blk.Kernel)*ch + ch*ch)
	}
	macs += t * ch * NumClasses
	return macs
}

// Read is one basecalling task.
type Read struct {
	Name   string
	Signal []float32
}

// EditDistance computes Levenshtein distance between called and truth —
// the accuracy metric basecallers report. Exported for examples and
// tests that want to compare basecalls.
func EditDistance(a, b genome.Seq) int {
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			v := prev[j-1] + cost
			if s := prev[j] + 1; s < v {
				v = s
			}
			if s := cur[j-1] + 1; s < v {
				v = s
			}
			cur[j] = v
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
