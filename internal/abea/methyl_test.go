package abea

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
	"repro/internal/signalsim"
)

func TestKmerHasCpG(t *testing.T) {
	cases := []struct {
		s    string
		want bool
	}{
		{"ACGTAT", true},
		{"AAAAAA", false},
		{"CGCGCG", true},
		{"GCTAGC", false}, // GC is not CG
		{"TTTTCG", true},  // CG at the end
		{"CGTTTT", true},  // CG at the start
	}
	for _, c := range cases {
		code := genome.KmerCode(genome.MustFromString(c.s), 0, signalsim.K)
		if got := kmerHasCpG(code); got != c.want {
			t.Errorf("kmerHasCpG(%s) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestMethylatedModelShiftsOnlyCpGKmers(t *testing.T) {
	base := signalsim.NewPoreModel()
	meth := MethylatedModel(base)
	shifted, same := 0, 0
	for code := 0; code < len(base.Mean); code += 13 {
		diff := meth.Mean[code] - base.Mean[code]
		if kmerHasCpG(uint64(code)) {
			if diff == 0 {
				t.Fatalf("CpG k-mer %d not shifted", code)
			}
			if d := float64(diff); d < -3.6 || d > 3.6 || (d > -1.4 && d < 1.4) {
				t.Fatalf("shift %v outside ±[1.5,3.5]", diff)
			}
			shifted++
		} else {
			if diff != 0 {
				t.Fatalf("non-CpG k-mer %d shifted by %v", code, diff)
			}
			same++
		}
	}
	if shifted == 0 || same == 0 {
		t.Fatal("degenerate sampling")
	}
}

// cpgRichSeq builds a sequence with several CpG sites at known spots.
func cpgRichSeq(rng *rand.Rand, n int) genome.Seq {
	s := genome.Random(rng, n)
	for i := 20; i+1 < n-20; i += 50 {
		s[i] = genome.C
		s[i+1] = genome.G
	}
	return s
}

func TestCallMethylationDiscriminates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := signalsim.NewPoreModel()
	meth := MethylatedModel(base)
	seq := cpgRichSeq(rng, 400)
	simCfg := signalsim.DefaultConfig()
	simCfg.NoiseScale = 0.5

	evMeth := signalsim.Simulate(rng, meth, seq, simCfg)
	evUnmeth := signalsim.Simulate(rng, base, seq, simCfg)

	cfg := DefaultConfig()
	callsM := CallMethylation(base, meth, seq, evMeth, cfg, 2)
	callsU := CallMethylation(base, meth, seq, evUnmeth, cfg, 2)
	if len(callsM) == 0 || len(callsU) == 0 {
		t.Fatalf("no CpG calls made (%d, %d)", len(callsM), len(callsU))
	}
	var meanM, meanU float64
	for _, c := range callsM {
		meanM += float64(c.LogLikRatio)
	}
	for _, c := range callsU {
		meanU += float64(c.LogLikRatio)
	}
	meanM /= float64(len(callsM))
	meanU /= float64(len(callsU))
	if meanM <= meanU {
		t.Errorf("methylated LLR %.2f not above unmethylated %.2f", meanM, meanU)
	}
	if meanM <= 0 {
		t.Errorf("methylated reads should have positive mean LLR, got %.2f", meanM)
	}
	if meanU >= 0 {
		t.Errorf("unmethylated reads should have negative mean LLR, got %.2f", meanU)
	}
	// Site-level accuracy: most methylated-read sites called methylated.
	correct := 0
	for _, c := range callsM {
		if c.Methylated {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(callsM)); frac < 0.6 {
		t.Errorf("only %.0f%% of methylated sites called", 100*frac)
	}
}

func TestCallMethylationShortSeq(t *testing.T) {
	base := signalsim.NewPoreModel()
	meth := MethylatedModel(base)
	if calls := CallMethylation(base, meth, genome.MustFromString("ACG"), nil, DefaultConfig(), 2); calls != nil {
		t.Error("short sequence should yield no calls")
	}
}
