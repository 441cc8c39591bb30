package signalsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/genome"
)

func TestPoreModelDeterministicAndInRange(t *testing.T) {
	a := NewPoreModel()
	b := NewPoreModel()
	if len(a.Mean) != 1<<(2*K) {
		t.Fatalf("len(Mean) = %d", len(a.Mean))
	}
	for code := 0; code < len(a.Mean); code += 97 {
		if a.Mean[code] != b.Mean[code] {
			t.Fatal("pore model not deterministic")
		}
		if a.Mean[code] < 60 || a.Mean[code] > 130 {
			t.Fatalf("k-mer %d level %f out of range", code, a.Mean[code])
		}
		if a.Stdv[code] < 1 || a.Stdv[code] > 3 {
			t.Fatalf("k-mer %d stdv %f out of range", code, a.Stdv[code])
		}
	}
}

func TestPoreModelLevelsDistinct(t *testing.T) {
	m := NewPoreModel()
	// Adjacent k-mer codes should usually have very different levels
	// (hash-spread), unlike a linear mapping.
	same := 0
	for code := 0; code+1 < 1000; code++ {
		if math.Abs(float64(m.Mean[code]-m.Mean[code+1])) < 1 {
			same++
		}
	}
	if same > 100 {
		t.Errorf("%d/1000 adjacent k-mers nearly identical", same)
	}
}

func TestSimulateEventCount(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := NewPoreModel()
	seq := genome.Random(rng, 2000)
	cfg := DefaultConfig()
	events := Simulate(rng, model, seq, cfg)
	nk := len(seq) - K + 1
	// Expected events per k-mer = (1-skip) * (1+overseg).
	expected := float64(nk) * (1 - cfg.SkipRate) * (1 + cfg.OversegmentationRate)
	if float64(len(events)) < expected*0.8 || float64(len(events)) > expected*1.2 {
		t.Errorf("got %d events, expected ~%.0f", len(events), expected)
	}
}

func TestSimulateNoNoiseTracksModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := NewPoreModel()
	seq := genome.Random(rng, 300)
	cfg := Config{OversegmentationRate: 0, SkipRate: 0, NoiseScale: 0, MeanDwell: 5}
	events := Simulate(rng, model, seq, cfg)
	nk := len(seq) - K + 1
	if len(events) != nk {
		t.Fatalf("got %d events, want %d", len(events), nk)
	}
	for i, ev := range events {
		mean, _ := model.Level(seq, i)
		if math.Abs(float64(ev.Mean-mean)) > 1e-4 {
			t.Fatalf("event %d mean %f, model %f", i, ev.Mean, mean)
		}
	}
}

func TestSimulateShortSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if ev := Simulate(rng, NewPoreModel(), genome.MustFromString("ACGT"), DefaultConfig()); ev != nil {
		t.Error("expected nil events for sequence shorter than K")
	}
}

func TestSimulateReads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	model := NewPoreModel()
	src := genome.Random(rng, 50000)
	reads := SimulateReads(rng, model, src, 10, 500, 1500, DefaultConfig())
	if len(reads) != 10 {
		t.Fatalf("got %d reads", len(reads))
	}
	for _, r := range reads {
		if len(r.Seq) < 500 || len(r.Seq) > 1500 {
			t.Errorf("read %s length %d outside [500,1500]", r.Name, len(r.Seq))
		}
		if len(r.Events) == 0 {
			t.Errorf("read %s has no events", r.Name)
		}
	}
}

func TestLogProbMatchPeaksAtModelMean(t *testing.T) {
	model := NewPoreModel()
	seq := genome.MustFromString("ACGTACGTAC")
	mean, _ := model.Level(seq, 0)
	atMean := model.LogProbMatch(mean, seq, 0)
	offMean := model.LogProbMatch(mean+20, seq, 0)
	if atMean <= offMean {
		t.Errorf("log-prob at mean %f not greater than off mean %f", atMean, offMean)
	}
	if atMean > 0 {
		t.Errorf("log density unexpectedly positive: %f", atMean)
	}
}

func TestEventDwellPositive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	events := Simulate(rng, NewPoreModel(), genome.Random(rng, 500), DefaultConfig())
	for _, ev := range events {
		if ev.Length < 1 {
			t.Fatalf("event dwell %d < 1", ev.Length)
		}
		if ev.Stdv <= 0 {
			t.Fatalf("event stdv %f <= 0", ev.Stdv)
		}
	}
}
