package abea

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/genome"
	"repro/internal/signalsim"
)

// AlignTrace reads its emissions from the per-read tables, AlignInto
// from LogProbMatch: same score bits, same cells, same band fate.
func TestAlignTraceScoreMatchesAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := signalsim.NewPoreModel()
	for trial := 0; trial < 20; trial++ {
		seq := genome.Random(rng, 60+rng.Intn(60))
		simCfg := signalsim.DefaultConfig()
		if trial%2 == 1 {
			simCfg.NoiseScale = 3
		}
		events := signalsim.Simulate(rng, model, seq, simCfg)
		cfg := Config{BandWidth: []int{100, 16, 9}[trial%3]}
		plain := Align(model, seq, events, cfg)
		traced := AlignTrace(model, seq, events, cfg)
		if math.Float32bits(plain.Score) != math.Float32bits(traced.Score) ||
			plain.CellUpdates != traced.CellUpdates || plain.OutOfBand != traced.OutOfBand {
			t.Fatalf("trial %d (W=%d): score %v/%v cells %d/%d oob %v/%v", trial, cfg.BandWidth,
				plain.Score, traced.Score, plain.CellUpdates, traced.CellUpdates, plain.OutOfBand, traced.OutOfBand)
		}
	}
}

func TestAlignTracePathValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	model := signalsim.NewPoreModel()
	seq := genome.Random(rng, 100)
	events := signalsim.Simulate(rng, model, seq, signalsim.DefaultConfig())
	r := AlignTrace(model, seq, events, DefaultConfig())
	if r.OutOfBand {
		t.Fatal("out of band")
	}
	if len(r.Path) == 0 {
		t.Fatal("empty path")
	}
	nk := len(seq) - signalsim.K + 1
	for i, p := range r.Path {
		if p.Event < 0 || p.Event >= len(events) || p.Kmer < 0 || p.Kmer >= nk {
			t.Fatalf("path entry %d out of range: %+v", i, p)
		}
		if i > 0 {
			prev := r.Path[i-1]
			// Events strictly increase; k-mers never decrease.
			if p.Event != prev.Event+1 {
				t.Fatalf("entry %d: event %d after %d", i, p.Event, prev.Event)
			}
			if p.Kmer < prev.Kmer {
				t.Fatalf("entry %d: k-mer went backwards %d -> %d", i, prev.Kmer, p.Kmer)
			}
		}
	}
	last := r.Path[len(r.Path)-1]
	if last.Event != len(events)-1 || last.Kmer != nk-1 {
		t.Errorf("path ends at (%d,%d), want (%d,%d)", last.Event, last.Kmer, len(events)-1, nk-1)
	}
}

func TestAlignTracePathTracksCleanSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	model := signalsim.NewPoreModel()
	seq := genome.Random(rng, 80)
	// Clean one-event-per-k-mer signal: the path should be the main
	// diagonal exactly.
	events := signalsim.Simulate(rng, model, seq, cleanConfig())
	r := AlignTrace(model, seq, events, DefaultConfig())
	if r.OutOfBand {
		t.Fatal("out of band")
	}
	if len(r.Path) != len(events) {
		t.Fatalf("path covers %d events, want %d", len(r.Path), len(events))
	}
	offDiag := 0
	for _, p := range r.Path {
		if p.Event != p.Kmer {
			offDiag++
		}
	}
	if offDiag > len(r.Path)/20 {
		t.Errorf("%d/%d path entries off the diagonal on clean signal", offDiag, len(r.Path))
	}
}

func TestEventsForKmer(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	model := signalsim.NewPoreModel()
	seq := genome.Random(rng, 120)
	events := signalsim.Simulate(rng, model, seq, signalsim.DefaultConfig())
	r := AlignTrace(model, seq, events, DefaultConfig())
	if r.OutOfBand {
		t.Fatal("out of band")
	}
	sub := r.EventsForKmer(40, 60)
	if len(sub) == 0 {
		t.Fatal("no events over k-mers [40,60)")
	}
	for _, p := range sub {
		if p.Kmer < 40 || p.Kmer >= 60 {
			t.Fatalf("entry %+v outside window", p)
		}
	}
	// With ~1.35 events per k-mer the 20-k-mer window should yield
	// roughly 20-40 events.
	if len(sub) < 10 || len(sub) > 60 {
		t.Errorf("window produced %d events", len(sub))
	}
}

func TestAlignTraceDegenerate(t *testing.T) {
	model := signalsim.NewPoreModel()
	r := AlignTrace(model, genome.MustFromString("ACG"), nil, DefaultConfig())
	if r.Score != negInf || r.Path != nil {
		t.Error("degenerate input should yield empty trace")
	}
}
