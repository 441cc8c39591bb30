package nnbase

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/signalsim"
	"repro/internal/simt"
)

func TestNormalize(t *testing.T) {
	sig := []float32{10, 12, 11, 13, 9, 100} // one outlier
	norm := Normalize(sig)
	if len(norm) != len(sig) {
		t.Fatal("length changed")
	}
	// Median-centred: the middle values should straddle zero.
	var neg, pos int
	for _, v := range norm[:5] {
		if v < 0 {
			neg++
		}
		if v > 0 {
			pos++
		}
	}
	if neg == 0 || pos == 0 {
		t.Errorf("normalized values not centred: %v", norm)
	}
	if norm[5] < norm[0] {
		t.Error("outlier lost its ordering")
	}
	if Normalize(nil) != nil {
		t.Error("Normalize(nil) should be nil")
	}
}

func TestNormalizeConstantSignal(t *testing.T) {
	sig := []float32{5, 5, 5, 5}
	norm := Normalize(sig)
	for _, v := range norm {
		if v != 0 {
			t.Errorf("constant signal normalized to %v", v)
		}
	}
}

func TestForwardShapes(t *testing.T) {
	cfg := DefaultConfig()
	m := NewModel(1, cfg)
	chunk := make([]float32, 300)
	probs := m.Forward(chunk)
	if probs.Rows != 100 { // stride 3
		t.Errorf("output rows %d, want 100", probs.Rows)
	}
	if probs.Cols != NumClasses {
		t.Errorf("output cols %d, want %d", probs.Cols, NumClasses)
	}
	for r := 0; r < probs.Rows; r++ {
		var sum float64
		for _, v := range probs.Row(r) {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("row %d probabilities sum to %v", r, sum)
		}
	}
}

func TestBasecallDeterministicAndProducesBases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := signalsim.NewPoreModel()
	seq := genome.Random(rng, 300)
	signal := signalsim.RawSignal(rng, model, seq, signalsim.DefaultConfig())
	if len(signal) < 1000 {
		t.Fatalf("raw signal too short: %d", len(signal))
	}
	cfg := DefaultConfig()
	m := NewModel(7, cfg)
	a, macsA := m.Basecall(signal, cfg)
	b, macsB := m.Basecall(signal, cfg)
	if !a.Equal(b) || macsA != macsB {
		t.Error("basecalling not deterministic")
	}
	if macsA == 0 {
		t.Error("no MACs counted")
	}
	// Untrained network: no accuracy claim, but it must emit a sequence
	// over the 4-letter alphabet with plausible length (< signal len).
	if len(a) == 0 || len(a) > len(signal) {
		t.Errorf("called %d bases from %d samples", len(a), len(signal))
	}
	for _, base := range a {
		if base > 3 {
			t.Fatal("invalid base emitted")
		}
	}
}

func TestBasecallEmptySignal(t *testing.T) {
	cfg := DefaultConfig()
	m := NewModel(3, cfg)
	if seq, macs := m.Basecall(nil, cfg); seq != nil || macs != 0 {
		t.Error("empty signal should produce nothing")
	}
}

func TestChunkingCoversWholeSignal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Blocks = 1
	cfg.Channels = 8
	m := NewModel(5, cfg)
	// Two chunks worth of signal: MACs should be ~2x one chunk.
	sig := make([]float32, 2*ChunkSize)
	rng := rand.New(rand.NewSource(4))
	for i := range sig {
		sig[i] = float32(rng.NormFloat64())
	}
	_, macs2 := m.Basecall(sig, cfg)
	_, macs1 := m.Basecall(sig[:ChunkSize], cfg)
	ratio := float64(macs2) / float64(macs1)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("2-chunk MACs ratio %v, want ~2", ratio)
	}
}

func TestMACsPerChunkScalesWithModel(t *testing.T) {
	small := NewModel(1, Config{Channels: 16, Blocks: 2, Kernel: 5})
	big := NewModel(1, Config{Channels: 64, Blocks: 6, Kernel: 9})
	if small.MACsPerChunk(ChunkSize) >= big.MACsPerChunk(ChunkSize) {
		t.Error("bigger model should cost more MACs")
	}
}

func TestEditDistance(t *testing.T) {
	a := genome.MustFromString("ACGT")
	cases := []struct {
		b    string
		want int
	}{
		{"ACGT", 0}, {"ACG", 1}, {"ACGTT", 1}, {"TCGT", 1}, {"", 4}, {"TTTT", 3},
	}
	for _, c := range cases {
		if got := EditDistance(a, genome.MustFromString(c.b)); got != c.want {
			t.Errorf("EditDistance(ACGT,%s) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestRunKernelThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	model := signalsim.NewPoreModel()
	cfg := DefaultConfig()
	cfg.Channels = 16
	cfg.Blocks = 2
	m := NewModel(9, cfg)
	var reads []Read
	for i := 0; i < 4; i++ {
		seq := genome.Random(rng, 200)
		reads = append(reads, Read{
			Name:   "r",
			Signal: signalsim.RawSignal(rng, model, seq, signalsim.DefaultConfig()),
		})
	}
	r1 := must(RunKernelCtx(context.Background(), m, reads, cfg, 1))
	for _, threads := range []int{2, 4} {
		rn := must(RunKernelCtx(context.Background(), m, reads, cfg, threads))
		if r1.MACs != rn.MACs || r1.BasesOut != rn.BasesOut {
			t.Errorf("threading changed results: %+v vs %+v", r1, rn)
		}
		if r1.Counters != rn.Counters || !slices.Equal(r1.TaskStats.Work(), rn.TaskStats.Work()) {
			t.Errorf("%d threads: counters or task-order sample sequence differ from 1 thread", threads)
		}
		for i := range r1.Called {
			if !r1.Called[i].Equal(rn.Called[i]) {
				t.Fatal("called sequences differ across thread counts")
			}
		}
	}
	if r1.TaskStats.Count() != 4 {
		t.Errorf("task count %d", r1.TaskStats.Count())
	}
}

func TestGPUMetricsShape(t *testing.T) {
	cfg := DefaultConfig()
	m := NewModel(11, cfg)
	dev := simt.TitanXp()
	metrics, launch := RunGPU(m, cfg, 4, dev)

	if be := metrics.BranchEfficiency(); be != 1 {
		t.Errorf("branch efficiency %v, want 1", be)
	}
	if we := metrics.WarpEfficiency(); we != 1 {
		t.Errorf("warp efficiency %v, want 1 (regular matmul)", we)
	}
	npe := metrics.NonPredicatedWarpEfficiency()
	if npe < 0.9 {
		t.Errorf("non-predicated efficiency %v, want ~0.94", npe)
	}
	occ := dev.Occupancy(launch)
	if occ < 0.75 {
		t.Errorf("occupancy %v, want high (paper ~0.88)", occ)
	}
	gle := metrics.GlobalLoadEfficiency()
	if gle < 0.4 || gle > 0.95 {
		t.Errorf("global load efficiency %v, want ~0.70", gle)
	}
	if gse := metrics.GlobalStoreEfficiency(); gse != 1 {
		t.Errorf("store efficiency %v, want 1", gse)
	}
	util := metrics.SMUtilization(dev, occ)
	if util < 0.9 {
		t.Errorf("SM utilization %v, want ~0.99", util)
	}
}

// must unwraps a RunKernelCtx result; a kernel run under a background
// context with no fault plan armed cannot fail.
func must(res KernelResult, err error) KernelResult {
	if err != nil {
		panic(err)
	}
	return res
}

// TestCalledDifferential: the basecalls are the same on the portable
// and the AVX2 microkernel and at 1, 2 and 4 threads, at the
// benchmark's geometry (32 channels: the 4-row tile and no column
// tail) and at one with a column tail in every layer.
func TestCalledDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pore := signalsim.NewPoreModel()
	var reads []Read
	for i := 0; i < 3; i++ {
		seq := genome.Random(rng, 150+50*i)
		reads = append(reads, Read{Name: "r", Signal: signalsim.RawSignal(rng, pore, seq, signalsim.DefaultConfig())})
	}
	for _, channels := range []int{32, 21} {
		cfg := DefaultConfig()
		cfg.Channels = channels
		cfg.Blocks = 2
		m := NewModel(9, cfg)
		var want []genome.Seq
		for _, tier := range []string{"off", "avx2"} {
			restore := cpufeat.ForceForTest(tier)
			if tier == "avx2" && !cpufeat.AVX2() {
				t.Log("no AVX2 on this host: portable tier only")
				restore()
				continue
			}
			for _, threads := range []int{1, 2, 4} {
				got := must(RunKernelCtx(context.Background(), m, reads, cfg, threads))
				if want == nil {
					want = got.Called
				}
				for i := range want {
					if len(got.Called[i]) == 0 || !got.Called[i].Equal(want[i]) {
						t.Errorf("channels %d, tier %s, %d threads: read %d called differently", channels, tier, threads, i)
					}
				}
			}
			restore()
		}
	}
}
