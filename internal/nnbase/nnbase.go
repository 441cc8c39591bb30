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
	"context"
	"math/rand"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/genome"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/perf"
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
		Stem:   nn.NewConv1D(rng, 1, cfg.Channels, 9, 3, nn.Swish, "stem"),
		Stride: 3,
	}
	for b := 0; b < cfg.Blocks; b++ {
		m.Blocks = append(m.Blocks, nn.NewSeparableConv1D(rng, cfg.Channels, cfg.Channels, cfg.Kernel, 1, nn.Swish, "block"))
		m.Norms = append(m.Norms, nn.NewBatchNorm(rng, cfg.Channels, "bn"))
	}
	m.Head = nn.NewDense(rng, cfg.Channels, NumClasses, nil, "head")
	return m
}

// Normalize applies med/MAD normalization, Bonito's preprocessing.
func Normalize(signal []float32) []float32 {
	if len(signal) == 0 {
		return nil
	}
	sorted := append([]float32(nil), signal...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	med := sorted[len(sorted)/2]
	devs := make([]float32, len(signal))
	for i, v := range signal {
		d := v - med
		if d < 0 {
			d = -d
		}
		devs[i] = d
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	mad := devs[len(devs)/2]
	if mad == 0 {
		mad = 1
	}
	out := make([]float32, len(signal))
	scale := 1 / (1.4826 * mad)
	for i, v := range signal {
		out[i] = (v - med) * scale
	}
	return out
}

// Forward runs the network on one normalized chunk, returning per-step
// class probabilities (rows = downsampled time).
func (m *Model) Forward(chunk []float32) *nn.Tensor {
	x := nn.NewTensor(len(chunk), 1)
	copy(x.Data, chunk)
	x = m.Stem.Forward(x)
	for i, blk := range m.Blocks {
		x = blk.Forward(x)
		x = m.Norms[i].Forward(x)
	}
	x = m.Head.Forward(x)
	return x.Softmax()
}

// Basecall splits signal into chunks, runs the network on each and
// stitches the decoded fragments. It returns the called sequence and
// the multiply-accumulate count performed.
func (m *Model) Basecall(signal []float32, cfg Config) (genome.Seq, uint64) {
	if len(signal) == 0 {
		return nil, 0
	}
	norm := Normalize(signal)
	var called genome.Seq
	var macs uint64
	for start := 0; start < len(norm); start += ChunkSize {
		end := start + ChunkSize
		if end > len(norm) {
			end = len(norm)
		}
		chunk := norm[start:end]
		if len(chunk) < m.Stem.Kernel {
			break
		}
		probs := m.Forward(chunk)
		macs += m.MACsPerChunk(len(chunk))
		var symbols []byte
		if cfg.BeamWidth > 1 {
			symbols = nn.CTCBeamDecode(probs, cfg.BeamWidth)
		} else {
			symbols = nn.CTCGreedyDecode(probs)
		}
		for _, s := range symbols {
			called = append(called, genome.Base(s))
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

// KernelResult aggregates an nn-base benchmark execution.
type KernelResult struct {
	Reads     int
	BasesOut  int
	MACs      uint64
	TaskStats *perf.TaskStats
	Counters  perf.Counters
	Called    []genome.Seq
}

// RunKernelCtx basecalls every read with dynamic scheduling, under
// cooperative cancellation and with a fault trip-point per read.
func RunKernelCtx(ctx context.Context, m *Model, reads []Read, cfg Config, threads int) (KernelResult, error) {
	if threads <= 0 {
		threads = 1
	}
	called := make([]genome.Seq, len(reads))
	macs := make([]uint64, len(reads))
	err := parallel.ForEachCtxErr(ctx, len(reads), threads, func(tctx context.Context, w, i int) error {
		if err := faultinject.Point(tctx); err != nil {
			return err
		}
		called[i], macs[i] = m.Basecall(reads[i].Signal, cfg)
		return nil
	})
	if err != nil {
		return KernelResult{}, err
	}
	res := KernelResult{Reads: len(reads), Called: called, TaskStats: perf.NewTaskStats("MACs")}
	for i := range called {
		res.BasesOut += len(called[i])
		res.MACs += macs[i]
		res.TaskStats.Observe(float64(macs[i]))
	}
	// Dense FP matrix arithmetic end to end.
	res.Counters.Add(perf.VecOp, res.MACs)
	res.Counters.Add(perf.FloatOp, res.MACs/4)
	res.Counters.Add(perf.Load, res.MACs/8)
	res.Counters.Add(perf.Store, res.MACs/32)
	res.Counters.Add(perf.Branch, res.MACs/256)
	return res, nil
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
