// Package nnvariant implements the neural-network variant calling
// kernel modelled on Clair: for each candidate reference position, a
// 33 x 8 x 4 tensor is built from the read pileup (16 flanking
// positions each side; 4 bases x 2 strands; 4 encodings — raw counts,
// insertion support, deletion support and alternative-allele support),
// then a stack of bidirectional LSTM layers with fully connected heads
// predicts genotype, zygosity and per-haplotype indel length. Weights
// are seeded-random: the suite benchmarks the computation, not calling
// accuracy.
package nnvariant

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"

	"repro/internal/digest"
	"repro/internal/faultinject"
	"repro/internal/genome"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/pileup"
)

// Tensor geometry constants from the paper.
const (
	Flank     = 16
	Positions = 2*Flank + 1 // 33
	Channels  = 8           // 4 bases x 2 strands
	Encodings = 4
	Features  = Channels * Encodings // 32 per position
)

// Head output sizes.
const (
	GenotypeClasses = 10 // unordered base pairs AA..TT
	ZygosityClasses = 3  // hom-ref, het, hom-alt
	IndelClasses    = 6  // lengths 0-4, 5+
)

// BuildTensor encodes the pileup window centred at position center
// (indexing into counts, which covers one contiguous region) into a
// (33, 32) input tensor. Counts outside the region are zero.
func BuildTensor(counts []pileup.Counts, center int) *nn.Tensor {
	t := nn.NewTensor(Positions, Features)
	for p := 0; p < Positions; p++ {
		pos := center - Flank + p
		if pos < 0 || pos >= len(counts) {
			continue
		}
		c := &counts[pos]
		row := t.Row(p)
		depth := float32(c.Depth())
		if depth == 0 {
			continue
		}
		// Majority base defines "alternative" support at this position.
		maj, _, _ := c.MajorityBase()
		for strand := 0; strand < 2; strand++ {
			for b := 0; b < 4; b++ {
				ch := strand*4 + b
				raw := float32(c.Base[strand][b])
				row[ch] = raw / depth // (a) normalized raw counts
				// (b) insertion support shared across the strand's bases.
				row[Channels+ch] = float32(c.Ins[strand]) / depth
				// (c) deletion support.
				row[2*Channels+ch] = float32(c.Del[strand]) / depth
				// (d) alternative-allele support: counts excluding the
				// majority base.
				if genome.Base(b) != maj {
					row[3*Channels+ch] = raw / depth
				}
			}
		}
	}
	return t
}

// Model is the Clair-style network.
type Model struct {
	L1, L2   *nn.BiLSTM
	Shared   *nn.Dense
	Genotype *nn.Dense
	Zygosity *nn.Dense
	Indel1   *nn.Dense
	Indel2   *nn.Dense
	Hidden   int
}

// Config sets model geometry.
type Config struct {
	Hidden int // LSTM hidden units per direction
	Dense  int // shared dense width
}

// DefaultConfig is a scaled-down Clair geometry.
func DefaultConfig() Config { return Config{Hidden: 32, Dense: 48} }

// NewModel builds a model with seeded random weights.
func NewModel(seed int64, cfg Config) *Model {
	rng := rand.New(rand.NewSource(seed))
	return &Model{
		L1:       nn.NewBiLSTM(rng, Features, cfg.Hidden, "l1"),
		L2:       nn.NewBiLSTM(rng, 2*cfg.Hidden, cfg.Hidden, "l2"),
		Shared:   nn.NewDense(rng, 2*cfg.Hidden, cfg.Dense, nn.ReLUSlice, "shared"),
		Genotype: nn.NewDense(rng, cfg.Dense, GenotypeClasses, nil, "gt"),
		Zygosity: nn.NewDense(rng, cfg.Dense, ZygosityClasses, nil, "zy"),
		Indel1:   nn.NewDense(rng, cfg.Dense, IndelClasses, nil, "i1"),
		Indel2:   nn.NewDense(rng, cfg.Dense, IndelClasses, nil, "i2"),
		Hidden:   cfg.Hidden,
	}
}

// Call holds the network's four probability heads for one position.
type Call struct {
	Genotype [GenotypeClasses]float32
	Zygosity [ZygosityClasses]float32
	Indel1   [IndelClasses]float32
	Indel2   [IndelClasses]float32
}

// fold extends the FNV-1a digest h with the float32 bits of the four
// heads, in field order, each low byte first.
func (c *Call) fold(h uint64) uint64 {
	var le [4]byte
	for _, head := range [][]float32{c.Genotype[:], c.Zygosity[:], c.Indel1[:], c.Indel2[:]} {
		for _, v := range head {
			binary.LittleEndian.PutUint32(le[:], math.Float32bits(v))
			h = digest.Bytes(h, le[:])
		}
	}
	return h
}

// Predict runs the network on one input tensor.
func (m *Model) Predict(x *nn.Tensor) Call {
	h := m.L1.Forward(x)
	h = m.L2.Forward(h)
	// Collapse the sequence dimension at the centre position, as Clair
	// summarizes around the candidate site.
	centre := nn.NewTensor(1, h.Cols)
	copy(centre.Data, h.Row(Positions/2))
	s := m.Shared.Forward(centre)
	var out Call
	copy(out.Genotype[:], m.Genotype.Forward(s).Softmax().Row(0))
	copy(out.Zygosity[:], m.Zygosity.Forward(s).Softmax().Row(0))
	copy(out.Indel1[:], m.Indel1.Forward(s).Softmax().Row(0))
	copy(out.Indel2[:], m.Indel2.Forward(s).Softmax().Row(0))
	return out
}

// MACsPerCall estimates the multiply-accumulate work of one prediction.
func (m *Model) MACsPerCall() uint64 {
	h := uint64(m.Hidden)
	perStep := 2 * (uint64(Features)*4*h + h*4*h) // two directions, layer 1
	perStep += 2 * (2*h*4*h + h*4*h)              // layer 2
	total := uint64(Positions) * perStep
	total += 2 * h * uint64(len(m.Shared.B))
	total += uint64(len(m.Shared.B)) * (GenotypeClasses + ZygosityClasses + 2*IndelClasses)
	return total
}

// SelectCandidates returns positions whose pileup shows enough depth
// and non-reference support to be worth calling, mirroring Clair's
// candidate filter.
func SelectCandidates(counts []pileup.Counts, ref genome.Seq, start int, minDepth uint32, minAltFrac float64) []int {
	var out []int
	for p := range counts {
		c := &counts[p]
		depth := c.Depth()
		if depth < minDepth {
			continue
		}
		refBase := ref[start+p]
		alt := uint32(0)
		for strand := 0; strand < 2; strand++ {
			for b := 0; b < 4; b++ {
				if genome.Base(b) != refBase {
					alt += c.Base[strand][b]
				}
			}
			alt += c.Ins[strand] + c.Del[strand]
		}
		if float64(alt) >= minAltFrac*float64(depth) {
			out = append(out, p)
		}
	}
	return out
}

// Task is one region's calling workload.
type Task struct {
	Counts     []pileup.Counts
	Candidates []int
}

// KernelResult aggregates an nn-variant benchmark execution.
type KernelResult struct {
	Tasks     int
	Calls     int
	MACs      uint64
	TaskStats *perf.TaskStats
	Counters  perf.Counters
	// Digest is FNV-1a over the float32 bits of every prediction,
	// hashed per task and the task hashes hashed in task order: the
	// one output of the run that depends on what the network computed,
	// identical at any thread count.
	Digest uint64
}

// RunKernelCtx predicts every candidate of every task with dynamic
// scheduling across regions, under cooperative cancellation and with a
// fault trip-point per region task.
func RunKernelCtx(ctx context.Context, m *Model, tasks []*Task, threads int) (KernelResult, error) {
	if threads <= 0 {
		threads = 1
	}
	digests := make([]uint64, len(tasks))
	err := parallel.ForEachCtxErr(ctx, len(tasks), threads, func(tctx context.Context, w, i int) error {
		if err := faultinject.Point(tctx); err != nil {
			return err
		}
		h := digest.Seed
		for _, pos := range tasks[i].Candidates {
			call := m.Predict(BuildTensor(tasks[i].Counts, pos))
			h = call.fold(h)
		}
		digests[i] = h
		return nil
	})
	if err != nil {
		return KernelResult{}, err
	}
	res := KernelResult{Tasks: len(tasks), Digest: digest.Seed, TaskStats: perf.NewTaskStats("MACs")}
	perCall := m.MACsPerCall()
	for i, t := range tasks {
		macs := perCall * uint64(len(t.Candidates))
		res.Calls += len(t.Candidates)
		res.MACs += macs
		res.TaskStats.Observe(float64(macs))
		res.Digest = digest.Word(res.Digest, digests[i])
	}
	res.Counters.Add(perf.VecOp, res.MACs)
	res.Counters.Add(perf.FloatOp, res.MACs/3)
	res.Counters.Add(perf.Load, res.MACs/8)
	res.Counters.Add(perf.Store, res.MACs/32)
	res.Counters.Add(perf.Branch, res.MACs/128)
	return res, nil
}
