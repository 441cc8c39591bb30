package repro

// One benchmark per table and figure of the paper's evaluation section,
// plus per-kernel benchmarks and the ablations DESIGN.md calls out.
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The printed tables come from `go run ./cmd/gbench-tables`; these
// benchmarks time the regeneration paths and the kernels themselves.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bsw"
	"repro/internal/core"
	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/grm"
	"repro/internal/kmercnt"
	"repro/internal/nn"
	"repro/internal/nnbase"
	"repro/internal/readsim"
	"repro/internal/seq2"
)

const benchSeed = 42

// ---- Tables ----

func BenchmarkTableI_Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.TableI() == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkTableII_Overview(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.TableII().Rows) != 12 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTableIII_Granularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.TableIII(core.Small, benchSeed)
	}
}

func BenchmarkTableIV_GPUControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.TableIV(benchSeed)
	}
}

func BenchmarkTableV_GPUMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.TableV(benchSeed)
	}
}

func BenchmarkVectorWaste(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.VectorWaste(benchSeed)
	}
}

// ---- Figures ----

func BenchmarkFig4_Imbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.Fig4(core.Small, benchSeed)
	}
}

func BenchmarkFig5_InstMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.Fig5(core.Small, benchSeed)
	}
}

func BenchmarkFig6_BPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.Fig6(benchSeed)
	}
}

func BenchmarkFig7_Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.Fig7(core.Small, benchSeed, []int{1, 2})
	}
}

func BenchmarkFig8_Cache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.Fig8(benchSeed)
	}
}

func BenchmarkFig9_TopDown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.Fig9(benchSeed)
	}
}

func BenchmarkCacheSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.CacheSweepTable(benchSeed)
	}
}

// ---- Per-kernel benchmarks (small inputs, single thread) ----

func BenchmarkKernel(b *testing.B) {
	for _, bench := range core.Benchmarks() {
		bench := bench
		b.Run(bench.Info().Name, func(b *testing.B) {
			bench.Prepare(core.Small, benchSeed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunCtx(context.Background(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations (design choices DESIGN.md calls out) ----

// Banded versus full Smith-Waterman: the banding design choice.
func BenchmarkAblationBSWBand(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	q := genome.Random(rng, 500)
	t := q.Clone()
	for i := 0; i < 25; i++ {
		t[rng.Intn(len(t))] = genome.Base(rng.Intn(4))
	}
	for _, band := range []int{10, 50, 100, 1000} {
		p := bsw.DefaultParams()
		p.Band = band
		p.Mode = bsw.Local
		p.ZDrop = 0
		b.Run(bandName(band), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bsw.Align(q, t, p)
			}
		})
	}
}

func bandName(band int) string {
	switch band {
	case 1000:
		return "full"
	case 10:
		return "band10"
	case 50:
		return "band50"
	default:
		return "band100"
	}
}

// Robin-hood versus linear probing: the paper's suggested kmer-cnt
// optimization.
func BenchmarkAblationKmerProbing(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	reads := make([]genome.Seq, 50)
	for i := range reads {
		reads[i] = genome.Random(rng, 2000)
	}
	for _, mode := range []kmercnt.Probing{kmercnt.Linear, kmercnt.RobinHood} {
		name := "linear"
		if mode == kmercnt.RobinHood {
			name = "robinhood"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab := kmercnt.NewTable(1<<12, mode)
				for _, r := range reads {
					kmercnt.CountSeq(tab, r, 17)
				}
			}
		})
	}
}

// Plain versus prefetch-batched k-mer counting: the paper's suggested
// mitigation for kmer-cnt's memory stalls. The batched side is the
// kernel's production path, packing included.
func BenchmarkAblationKmerBatching(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	reads := make([]genome.Seq, 50)
	for i := range reads {
		reads[i] = genome.Random(rng, 2000)
	}
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tab := kmercnt.NewTable(1<<12, kmercnt.Linear)
			for _, r := range reads {
				kmercnt.CountSeq(tab, r, 17)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		var buf []uint64
		for i := 0; i < b.N; i++ {
			tab := kmercnt.NewTable(1<<12, kmercnt.Linear)
			for _, r := range reads {
				p := seq2.PackInto(buf, r)
				buf = p.WordsSlice()
				kmercnt.CountSeqPackedBatched(tab, p, 17)
			}
		}
	})
}

// Greedy versus beam CTC decoding in the basecaller.
func BenchmarkAblationCTCDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	probs := nn.RandomTensor(rng, 400, 5, 1)
	probs.Softmax()
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nn.CTCGreedyDecode(probs)
		}
	})
	b.Run("beam8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nn.CTCBeamDecode(probs, 8)
		}
	})
}

// Float32 versus int8-quantized dense inference (Bonito ships
// quantized models).
func BenchmarkAblationQuantizedDense(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	d := nn.NewDense(rng, 256, 128, nn.ReLU, "fc")
	q := d.Quantize()
	x := nn.RandomTensor(rng, 64, 256, 1)
	b.Run("float32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d.Forward(x)
		}
	})
	b.Run("int8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.Forward(x)
		}
	})
}

// Inter-sequence batch width: SIMD lane-count trade-off for bsw.
func BenchmarkAblationBSWLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	ref := genome.Random(rng, 50_000)
	pairs := make([]bsw.Pair, 64)
	for i := range pairs {
		n := 80 + rng.Intn(120)
		start := rng.Intn(len(ref) - n - 40)
		pairs[i] = bsw.Pair{Query: ref[start : start+n], Target: ref[start : start+n+40]}
	}
	p := bsw.DefaultParams()
	for _, lanes := range []int{4, 8, 16} {
		lanes := lanes
		b.Run(laneName(lanes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bsw.AlignBatch(pairs, p, lanes)
			}
		})
	}
}

func laneName(lanes int) string {
	switch lanes {
	case 4:
		return "lanes4"
	case 8:
		return "lanes8"
	default:
		return "lanes16"
	}
}

// Blocked versus naive GRM computation.
func BenchmarkAblationGRMBlocking(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	g := grm.Simulate(rng, 120, 2000, 0.1)
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			grm.ComputeNaive(g)
		}
	})
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			grm.Compute(g, 64, 1)
		}
	})
}

// FM-index construction: SA-IS plus BWT/Occ build cost.
func BenchmarkFMIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	g := genome.Random(rng, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fmindex.Build(g)
	}
}

// End-to-end basecalling throughput (samples/sec in bytes metric).
func BenchmarkBasecall(b *testing.B) {
	cfg := nnbase.DefaultConfig()
	cfg.Channels = 16
	cfg.Blocks = 2
	m := nnbase.NewModel(benchSeed, cfg)
	rng := rand.New(rand.NewSource(benchSeed))
	signal := make([]float32, nnbase.ChunkSize)
	for i := range signal {
		signal[i] = float32(rng.NormFloat64())
	}
	b.SetBytes(nnbase.ChunkSize * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Basecall(signal, cfg)
	}
}

// Read simulation throughput, the suite's dataset generator.
func BenchmarkReadSimulation(b *testing.B) {
	rng := rand.New(rand.NewSource(benchSeed))
	ref := genome.NewReference(rng, "chr", 100_000, 0.1)
	sim := readsim.New(benchSeed)
	cfg := readsim.DefaultShort()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.ShortReads(ref.Seq, -1, 100, cfg, "r")
	}
}
