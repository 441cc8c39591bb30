package scenario

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/dbg"
	"repro/internal/genome"
	"repro/internal/phmm"
	"repro/internal/readsim"
)

// The GATK-style short-read pipeline as a registered scenario:
// simulated reads stream through region binning, De-Bruijn assembly,
// PairHMM scoring and genotype calling. examples/scenarios runs it
// at demo scale.

// AssembledRegion is the dbg stage's output: a region whose reads
// assembled into at least two candidate haplotypes.
type AssembledRegion struct {
	Region *RegionReads
	Haps   []genome.Seq
}

// ScoredRegion is the phmm stage's output: per-read best-haplotype
// assignments for an assembled region.
type ScoredRegion struct {
	Region  *RegionReads
	Haps    []genome.Seq
	BestHap []int
}

func init() {
	Register(&Def{
		Name:  "variantcalling",
		Title: "Short-read variant calling",
		Stages: []string{
			"readsim", "bin", "dbg", "phmm", "genotype",
		},
		Params: Params{
			"ref_len":     60_000,
			"region_size": 400,
			"coverage":    30,
			"read_len":    100,
			"snv_rate":    0.0015,
			"indel_rate":  0.0003,
			"seed":        11,
			"read_seed":   12,
			"dbg_workers": 2,
			"hmm_workers": 2,
			"min_recall":  0.40,
		},
		Build: buildVariantCalling,
	})
}

func buildVariantCalling(p Params) (*Pipeline, error) {
	var (
		refLen     = p.Int("ref_len")
		regionSize = p.Int("region_size")
		coverage   = p.Get("coverage")
		readLen    = p.Int("read_len")
		snvRate    = p.Get("snv_rate")
		indelRate  = p.Get("indel_rate")
		seed       = int64(p.Int("seed"))
		readSeed   = int64(p.Int("read_seed"))
		minRecall  = p.Get("min_recall")
	)
	rng := rand.New(rand.NewSource(seed))
	ref := genome.NewReference(rng, "chr22", refLen, 0)
	donor := genome.PlantVariants(rng, ref, snvRate, indelRate)
	asmCfg := dbg.DefaultConfig()

	pipe := &Pipeline{
		// readsim: replayable read stream, position-sorted so the
		// binner can emit regions as soon as the stream passes them.
		Source: func(ctx context.Context, emit func(any) error) error {
			sim := readsim.New(readSeed)
			cfg := readsim.DefaultShort()
			cfg.Length = readLen
			reads := sim.CoverageReads(donor, coverage, cfg, "rd")
			SortReadsByPos(reads)
			for _, r := range reads {
				if err := emit(r); err != nil {
					return err
				}
			}
			return nil
		},
		Stages: []Stage{
			{
				Name:     "bin",
				Workers:  1, // stateful: holds the open region window
				NewLocal: func() any { return NewRegionBinner(ref.Seq, regionSize) },
				Fn: func(ctx context.Context, w *Worker, v any, emit func(any) error) error {
					for _, rr := range w.Local.(*RegionBinner).Add(v.(readsim.Read)) {
						if err := emit(rr); err != nil {
							return err
						}
					}
					return nil
				},
				Flush: func(ctx context.Context, w *Worker, emit func(any) error) error {
					for _, rr := range w.Local.(*RegionBinner).Flush() {
						if err := emit(rr); err != nil {
							return err
						}
					}
					return nil
				},
			},
			{
				Name:     "dbg",
				Workers:  p.Int("dbg_workers"),
				NewState: func() any { return dbg.NewAssembler() },
				Fn: func(ctx context.Context, w *Worker, v any, emit func(any) error) error {
					rr := v.(*RegionReads)
					asm := w.State.(*dbg.Assembler).AssembleRegion(
						&dbg.Region{Ref: rr.Ref, Reads: rr.Reads}, asmCfg)
					if len(asm.Haplotypes) < 2 {
						return nil // no variant evidence assembled
					}
					return emit(&AssembledRegion{Region: rr, Haps: asm.Haplotypes})
				},
			},
			{
				Name:     "phmm",
				Workers:  p.Int("hmm_workers"),
				NewState: func() any { return phmm.NewScratch() },
				Fn: func(ctx context.Context, w *Worker, v any, emit func(any) error) error {
					ar := v.(*AssembledRegion)
					res := phmm.EvaluateRegionInto(&phmm.Region{
						Reads: ar.Region.Reads,
						Quals: ar.Region.Quals,
						Haps:  ar.Haps,
					}, w.State.(*phmm.Scratch))
					// res.BestHap aliases the worker's scratch; the next
					// region on this worker overwrites it, so copy what
					// flows downstream.
					best := append([]int(nil), res.BestHap...)
					return emit(&ScoredRegion{Region: ar.Region, Haps: ar.Haps, BestHap: best})
				},
			},
			{
				Name:    "genotype",
				Workers: 1,
				Fn: func(ctx context.Context, w *Worker, v any, emit func(any) error) error {
					sr := v.(*ScoredRegion)
					return emit(CallGenotype(sr.Region.Index, sr.Region.Start, sr.Region.Ref, sr.Haps, sr.BestHap))
				},
			},
		},
		Fold: func(d *Digest, v any) {
			g := v.(Genotype)
			d.Int(g.Region)
			d.Int(g.Best)
			d.Int(g.Second)
			d.Int(g.RefHap)
			d.Bool(g.AltCalled)
			d.Bool(g.Het)
			d.Int(len(g.Support))
			for _, s := range g.Support {
				d.Int(s)
			}
		},
		Accept: func(final []any) error {
			called := map[int]bool{}
			for _, v := range final {
				if g := v.(Genotype); g.AltCalled {
					called[g.Region] = true
				}
			}
			recovered := 0
			for _, vr := range donor.Variants {
				if called[AssignRegion(vr.Pos, refLen, regionSize)] {
					recovered++
				}
			}
			recall := float64(recovered) / float64(len(donor.Variants))
			if recall < minRecall {
				return fmt.Errorf("variantcalling: recall %.2f below floor %.2f (%d/%d variants in called regions)",
					recall, minRecall, recovered, len(donor.Variants))
			}
			return nil
		},
		Summary: func(final []any) string {
			var alt, het int
			called := map[int]bool{}
			for _, v := range final {
				g := v.(Genotype)
				if g.AltCalled {
					alt++
					called[g.Region] = true
					if g.Het {
						het++
					}
				}
			}
			recovered := 0
			for _, vr := range donor.Variants {
				if called[AssignRegion(vr.Pos, refLen, regionSize)] {
					recovered++
				}
			}
			return fmt.Sprintf("%d scored regions, %d alt calls (%d het-like); recall %d/%d planted variants (%.0f%%)",
				len(final), alt, het, recovered, len(donor.Variants),
				100*float64(recovered)/float64(len(donor.Variants)))
		},
	}
	return pipe, nil
}
