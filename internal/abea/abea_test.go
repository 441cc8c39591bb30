package abea

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/genome"
	"repro/internal/signalsim"
	"repro/internal/simt"
)

func cleanConfig() signalsim.Config {
	return signalsim.Config{OversegmentationRate: 0, SkipRate: 0, NoiseScale: 0, MeanDwell: 5}
}

func TestBandedMatchesFullOnCleanSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := signalsim.NewPoreModel()
	for trial := 0; trial < 10; trial++ {
		seq := genome.Random(rng, 25+rng.Intn(15))
		events := signalsim.Simulate(rng, model, seq, cleanConfig())
		full := FullAlign(model, seq, events)
		banded := Align(model, seq, events, DefaultConfig())
		if banded.OutOfBand {
			t.Fatalf("trial %d: clean alignment fell out of band", trial)
		}
		diff := float64(full - banded.Score)
		if diff < -1e-3 || diff > 1e-3 {
			t.Fatalf("trial %d: banded %v != full %v", trial, banded.Score, full)
		}
	}
}

func TestBandedCloseToFullWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := signalsim.NewPoreModel()
	seq := genome.Random(rng, 40)
	events := signalsim.Simulate(rng, model, seq, signalsim.DefaultConfig())
	full := FullAlign(model, seq, events)
	banded := Align(model, seq, events, DefaultConfig())
	if banded.OutOfBand {
		t.Fatal("noisy alignment fell out of band")
	}
	// The band restricts paths, so banded <= full (plus float slack).
	if banded.Score > full+1e-3 {
		t.Errorf("banded score %v exceeds full %v", banded.Score, full)
	}
	if full-banded.Score > 10 {
		t.Errorf("banded score %v far below full %v", banded.Score, full)
	}
}

func TestTrueSequenceScoresAboveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	model := signalsim.NewPoreModel()
	seq := genome.Random(rng, 100)
	events := signalsim.Simulate(rng, model, seq, signalsim.DefaultConfig())
	right := Align(model, seq, events, DefaultConfig())
	wrong := Align(model, genome.Random(rng, 100), events, DefaultConfig())
	if right.Score <= wrong.Score {
		t.Errorf("true sequence score %v not above random %v", right.Score, wrong.Score)
	}
}

func TestCellUpdatesBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	model := signalsim.NewPoreModel()
	seq := genome.Random(rng, 300)
	events := signalsim.Simulate(rng, model, seq, signalsim.DefaultConfig())
	cfg := DefaultConfig()
	r := Align(model, seq, events, cfg)
	nBands := len(events) + (len(seq) - signalsim.K + 1) + 1
	capCells := uint64(nBands) * uint64(cfg.BandWidth)
	if r.CellUpdates == 0 || r.CellUpdates > capCells {
		t.Errorf("cell updates %d outside (0, %d]", r.CellUpdates, capCells)
	}
	// Banded complexity must be far below full-matrix complexity for
	// long inputs.
	fullCells := uint64(len(events)) * uint64(len(seq)-signalsim.K+1)
	if r.CellUpdates >= fullCells {
		t.Errorf("banded computed %d cells, full matrix is %d", r.CellUpdates, fullCells)
	}
}

func TestDegenerateInputs(t *testing.T) {
	model := signalsim.NewPoreModel()
	if r := Align(model, genome.MustFromString("ACG"), nil, DefaultConfig()); r.Score != negInf {
		t.Error("short sequence should yield -inf")
	}
	if s := FullAlign(model, genome.MustFromString("ACG"), nil); s != negInf {
		t.Error("FullAlign short sequence should yield -inf")
	}
}

func TestRunKernelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	model := signalsim.NewPoreModel()
	src := genome.Random(rng, 20000)
	reads := signalsim.SimulateReads(rng, model, src, 8, 200, 600, signalsim.DefaultConfig())
	r1 := must(RunKernelCtx(context.Background(), model, reads, DefaultConfig(), 1))
	r4 := must(RunKernelCtx(context.Background(), model, reads, DefaultConfig(), 4))
	if r1.CellUpdates != r4.CellUpdates || r1.OutOfBand != r4.OutOfBand {
		t.Errorf("threading changed results: %+v vs %+v", r1, r4)
	}
	if r1.Counters != r4.Counters || !slices.Equal(r1.TaskStats.Work(), r4.TaskStats.Work()) {
		t.Error("counters or task-order sample sequence depend on the thread count")
	}
	if r1.TaskStats.Count() != 8 {
		t.Errorf("task count %d", r1.TaskStats.Count())
	}
	if r1.Counters.Ops[1] == 0 { // FloatOp
		t.Error("abea should count FP ops")
	}
}

func TestGPUMetricsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	model := signalsim.NewPoreModel()
	src := genome.Random(rng, 5000)
	reads := signalsim.SimulateReads(rng, model, src, 3, 150, 300, signalsim.DefaultConfig())
	dev := simt.TitanXp()
	m, launch := RunGPU(model, reads, DefaultConfig(), dev)

	if be := m.BranchEfficiency(); be < 0.999 {
		t.Errorf("branch efficiency %.3f, want ~1 (branch-free kernel)", be)
	}
	we := m.WarpEfficiency()
	if we < 0.5 || we > 0.95 {
		t.Errorf("warp efficiency %.3f outside the paper's ~0.75 region", we)
	}
	npe := m.NonPredicatedWarpEfficiency()
	if npe >= we {
		t.Errorf("non-predicated efficiency %.3f should be below warp efficiency %.3f", npe, we)
	}
	occ := dev.Occupancy(launch)
	if occ > 0.5 || occ <= 0 {
		t.Errorf("occupancy %.3f, want low (shared-memory limited, paper ~0.31)", occ)
	}
	gle := m.GlobalLoadEfficiency()
	if gle > 0.6 {
		t.Errorf("global load efficiency %.3f, want low (scattered model loads, paper ~0.26)", gle)
	}
	gse := m.GlobalStoreEfficiency()
	if gse <= gle {
		t.Errorf("store efficiency %.3f should exceed load efficiency %.3f", gse, gle)
	}
	util := m.SMUtilization(dev, occ)
	if util <= 0.3 || util >= 0.99 {
		t.Errorf("SM utilization %.3f outside plausible abea band", util)
	}
}

func TestCalibrationRestoresAlignmentQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	model := signalsim.NewPoreModel()
	seq := genome.Random(rng, 300)
	cfg := signalsim.Config{OversegmentationRate: 0.3, SkipRate: 0.05, NoiseScale: 0.5, MeanDwell: 5}
	clean := signalsim.Simulate(rng, model, seq, cfg)
	cleanScore := Align(model, seq, clean, DefaultConfig()).Score

	// Pore drift wrecks the raw alignment score.
	drift := signalsim.Drift{Scale: 1.08, Shift: -6}
	drifted := drift.Apply(append([]signalsim.Event(nil), clean...))
	driftedScore := Align(model, seq, drifted, DefaultConfig()).Score
	if driftedScore >= cleanScore-10 {
		t.Fatalf("drift did not hurt: clean %.0f drifted %.0f", cleanScore, driftedScore)
	}

	// Method-of-moments calibration restores most of it.
	restored := signalsim.CalibrateEvents(model, drifted)
	restoredScore := Align(model, seq, restored, DefaultConfig()).Score
	if restoredScore <= driftedScore {
		t.Fatalf("calibration did not help: drifted %.0f restored %.0f", driftedScore, restoredScore)
	}
	if gap := cleanScore - restoredScore; gap > float32(0.3*float64(cleanScore-driftedScore)) {
		t.Errorf("calibration recovered too little: clean %.0f drifted %.0f restored %.0f",
			cleanScore, driftedScore, restoredScore)
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
