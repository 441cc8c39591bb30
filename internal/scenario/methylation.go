package scenario

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/abea"
	"repro/internal/genome"
	"repro/internal/signalsim"
)

// Nanopolish-style methylation detection as a registered scenario: a
// CpG-island region is "sequenced" molecule by molecule through the
// pore model (alternating methylated and unmethylated molecules), each
// molecule's raw signal is event-aligned and its CpG sites called by
// the abea kernel. examples/scenarios runs it at demo scale.

// Molecule is one simulated read-to-be: which molecule, whether its
// cytosines are methylated, and the per-molecule signal seed.
type Molecule struct {
	Index      int
	Methylated bool
	Seed       int64
}

// MoleculeEvents is the signal stage's output: the molecule plus its
// simulated event stream.
type MoleculeEvents struct {
	Mol    Molecule
	Events []signalsim.Event
}

// MethylSummary is one molecule's call summary: how many of its CpG
// sites were called methylated and the summed log-likelihood ratio.
type MethylSummary struct {
	Index      int
	Methylated bool // planted truth
	Sites      int
	Called     int
	SumLLR     float64
}

func init() {
	Register(&Def{
		Name:  "methylation",
		Title: "Nanopore CpG methylation calling",
		Stages: []string{
			"molecules", "signal", "methylcall",
		},
		Params: Params{
			"seq_len":      1_200,
			"cpg_every":    60,
			"molecules":    8,
			"noise":        0.6,
			"threshold":    2.0,
			"seed":         41,
			"sig_workers":  2,
			"call_workers": 2,
			"min_tp":       0.60,
			"max_fp":       0.25,
		},
		Build: buildMethylation,
	})
}

func buildMethylation(p Params) (*Pipeline, error) {
	var (
		seqLen    = p.Int("seq_len")
		cpgEvery  = p.Int("cpg_every")
		molecules = p.Int("molecules")
		noise     = p.Get("noise")
		threshold = float32(p.Get("threshold"))
		seed      = int64(p.Int("seed"))
		minTP     = p.Get("min_tp")
		maxFP     = p.Get("max_fp")
	)
	rng := rand.New(rand.NewSource(seed))
	base := signalsim.NewPoreModel()
	meth := abea.MethylatedModel(base)

	// A CpG-island-like region: random backbone with CpG sites planted
	// every ~cpgEvery bases.
	seq := genome.Random(rng, seqLen)
	for i := 30; i+1 < len(seq)-30; i += cpgEvery {
		seq[i], seq[i+1] = genome.C, genome.G
	}

	simCfg := signalsim.DefaultConfig()
	simCfg.NoiseScale = noise
	callCfg := abea.DefaultConfig()

	pipe := &Pipeline{
		Source: func(ctx context.Context, emit func(any) error) error {
			for i := 0; i < molecules; i++ {
				m := Molecule{Index: i, Methylated: i%2 == 0, Seed: seed + 1000 + int64(i)}
				if err := emit(m); err != nil {
					return err
				}
			}
			return nil
		},
		Stages: []Stage{
			{
				Name:    "signal",
				Workers: p.Int("sig_workers"),
				Fn: func(ctx context.Context, w *Worker, v any, emit func(any) error) error {
					m := v.(Molecule)
					model := base
					if m.Methylated {
						model = meth
					}
					// Per-molecule rng: deterministic regardless of
					// which worker or executor simulates it.
					mrng := rand.New(rand.NewSource(m.Seed))
					ev := signalsim.Simulate(mrng, model, seq, simCfg)
					return emit(&MoleculeEvents{Mol: m, Events: ev})
				},
			},
			{
				Name:    "methylcall",
				Workers: p.Int("call_workers"),
				Fn: func(ctx context.Context, w *Worker, v any, emit func(any) error) error {
					me := v.(*MoleculeEvents)
					calls := abea.CallMethylation(base, meth, seq, me.Events, callCfg, threshold)
					s := MethylSummary{Index: me.Mol.Index, Methylated: me.Mol.Methylated, Sites: len(calls)}
					for _, c := range calls {
						s.SumLLR += float64(c.LogLikRatio)
						if c.Methylated {
							s.Called++
						}
					}
					return emit(s)
				},
			},
		},
		Fold: func(d *Digest, v any) {
			s := v.(MethylSummary)
			d.Int(s.Index)
			d.Bool(s.Methylated)
			d.Int(s.Sites)
			d.Int(s.Called)
			d.F64(s.SumLLR)
		},
		Accept: func(final []any) error {
			var tp, methSites, fp, unmethSites int
			for _, v := range final {
				s := v.(MethylSummary)
				if s.Methylated {
					tp += s.Called
					methSites += s.Sites
				} else {
					fp += s.Called
					unmethSites += s.Sites
				}
			}
			if methSites == 0 || unmethSites == 0 {
				return fmt.Errorf("methylation: no sites called (meth %d, unmeth %d)", methSites, unmethSites)
			}
			tpRate := float64(tp) / float64(methSites)
			fpRate := float64(fp) / float64(unmethSites)
			if tpRate < minTP {
				return fmt.Errorf("methylation: true-positive rate %.2f below floor %.2f", tpRate, minTP)
			}
			if fpRate > maxFP {
				return fmt.Errorf("methylation: false-positive rate %.2f above ceiling %.2f", fpRate, maxFP)
			}
			return nil
		},
		Summary: func(final []any) string {
			var tp, methSites, fp, unmethSites int
			for _, v := range final {
				s := v.(MethylSummary)
				if s.Methylated {
					tp += s.Called
					methSites += s.Sites
				} else {
					fp += s.Called
					unmethSites += s.Sites
				}
			}
			return fmt.Sprintf("%d molecules: methylated sites %d/%d called, unmethylated %d/%d falsely called",
				len(final), tp, methSites, fp, unmethSites)
		},
	}
	return pipe, nil
}
