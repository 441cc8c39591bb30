package nnbase

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/genome"
	"repro/internal/scratch"
	"repro/internal/signalsim"
	"repro/internal/simt"
)

func TestNormalize(t *testing.T) {
	sig := []float32{10, 12, 11, 13, 9, 100} // one outlier
	norm := Normalize(sig, scratch.New())
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
	if Normalize(nil, scratch.New()) != nil {
		t.Error("Normalize(nil) should be nil")
	}
}

// normalizeSortSlice is Normalize as it was before slices.Sort: the
// reference for TestNormalizeMatchesSortSlice.
func normalizeSortSlice(signal []float32) []float32 {
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

// TestNormalizeMatchesSortSlice: on finite signals, Normalize's output
// bits are the sort.Slice form's, including the sign of every zero,
// when the median or the MAD lands among duplicates, negatives and a
// mix of +0 and -0.
func TestNormalizeMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	negZero := float32(math.Copysign(0, -1))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(300)
		if trial%4 == 0 {
			n = 12 + rng.Intn(2) // below the insertion-sort cutoff
		}
		sig := make([]float32, n)
		for i := range sig {
			switch rng.Intn(6) {
			case 0:
				sig[i] = 0
			case 1:
				sig[i] = negZero
			case 2:
				sig[i] = float32(rng.Intn(5) - 2) // duplicates either side of 0
			default:
				sig[i] = float32(rng.NormFloat64() * 40)
			}
		}
		got, want := Normalize(sig, scratch.New()), normalizeSortSlice(sig)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("trial %d (n=%d): out[%d] = %#08x, want %#08x", trial, n, i,
					math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

func TestNormalizeConstantSignal(t *testing.T) {
	sig := []float32{5, 5, 5, 5}
	norm := Normalize(sig, scratch.New())
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
	probs := m.Forward(chunk, scratch.New())
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
	a, macsA := m.Basecall(signal, cfg, nil)
	b, macsB := m.Basecall(signal, cfg, nil)
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
	if seq, macs := m.Basecall(nil, cfg, nil); seq != nil || macs != 0 {
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
	_, macs2 := m.Basecall(sig, cfg, nil)
	_, macs1 := m.Basecall(sig[:ChunkSize], cfg, nil)
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

// requireSameBits fails unless got and want hold the same float32 bits.
func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %#08x, want %#08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestBasecallReusesDirtyArena: reads of every chunk shape run through
// one arena, each drawing the buffers the reads before it left dirty,
// call and count exactly what a fresh arena does, and every chunk's
// normalized input and class probabilities keep their bits.
func TestBasecallReusesDirtyArena(t *testing.T) {
	cfg := Config{Channels: 16, Blocks: 2, Kernel: 9, BeamWidth: 1}
	m := NewModel(21, cfg)
	rng := rand.New(rand.NewSource(22))
	signal := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(90 + rng.NormFloat64()*12)
		}
		return s
	}
	multi := signal(2*ChunkSize + 1500)
	reads := []struct {
		name string
		sig  []float32
	}{
		{"multi-chunk", multi},
		{"short tail chunk", signal(ChunkSize + 40)},
		{"shorter than the stem kernel", signal(m.Stem.Kernel - 3)},
		{"multi-chunk again", multi},
	}
	a := scratch.New()
	for _, r := range reads {
		got, gotMACs := m.Basecall(r.sig, cfg, a)
		want, wantMACs := m.Basecall(r.sig, cfg, nil)
		if !got.Equal(want) || gotMACs != wantMACs {
			t.Fatalf("%s: called %d bases (%d MACs) on the reused arena, %d (%d MACs) on a fresh one",
				r.name, len(got), gotMACs, len(want), wantMACs)
		}

		a.Reset()
		norm := Normalize(r.sig, a)
		wantNorm := Normalize(r.sig, scratch.New())
		requireSameBits(t, r.name+" normalized", norm, wantNorm)
		chunks := a.Mark()
		for start := 0; start+m.Stem.Kernel <= len(norm); start += ChunkSize {
			a.Rewind(chunks)
			end := min(start+ChunkSize, len(norm))
			probs := m.Forward(norm[start:end], a)
			wantProbs := m.Forward(wantNorm[start:end], scratch.New())
			requireSameBits(t, fmt.Sprintf("%s chunk at %d", r.name, start), probs.Data, wantProbs.Data)
		}
	}
}

// TestForwardZeroAlloc: on a warm arena, normalizing a read and running
// the network on a full chunk allocate nothing.
func TestForwardZeroAlloc(t *testing.T) {
	m := NewModel(3, Config{Channels: 32, Blocks: 3, Kernel: 9, BeamWidth: 1})
	rng := rand.New(rand.NewSource(5))
	sig := make([]float32, ChunkSize+500)
	for i := range sig {
		sig[i] = float32(rng.NormFloat64())
	}
	a := scratch.New()
	if n := testing.AllocsPerRun(10, func() {
		a.Reset()
		m.Forward(Normalize(sig, a)[:ChunkSize], a)
	}); n != 0 {
		t.Fatalf("%v allocs per normalized chunk on a warm arena, want 0", n)
	}
}
