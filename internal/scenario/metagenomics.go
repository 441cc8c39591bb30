package scenario

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/readsim"
)

// Centrifuge-style metagenomic classification as a registered
// scenario: long reads from a known species mixture stream through
// SMEM seeding against a pan-genome FM-index and a locate-and-vote
// classifier; acceptance checks classification accuracy and abundance
// error against the planted mixture. examples/scenarios runs it at
// demo scale.

// ClassifyRead is one read heading into the classifier, with its
// planted truth label riding along for the acceptance check.
type ClassifyRead struct {
	Index int
	Seq   genome.Seq
	Truth int
}

// SeededRead is the smem stage's output: the read plus its top seed
// matches, longest first.
type SeededRead struct {
	Read  ClassifyRead
	Seeds []fmindex.SMEM
}

// smemState is one smem worker's pooled state: the SMEM scratch and
// the buffer the read's seeds are found into and sorted in. Neither is
// tied to an index, so a pool carried from one pipeline to the next
// serves the next one's index as it is.
type smemState struct {
	scratch fmindex.SMEMScratch
	seeds   []fmindex.SMEM
}

// Classification is one read's final species assignment (-1 when
// unclassified).
type Classification struct {
	Index   int
	Truth   int
	Species int
	Votes   int
}

func init() {
	Register(&Def{
		Name:  "metagenomics",
		Title: "Metagenomic read classification",
		Stages: []string{
			"readsim", "smem", "classify",
		},
		Params: Params{
			"total_reads":      600,
			"mean_len":         1_200,
			"error_rate":       0.08,
			"seed":             31,
			"read_seed":        32,
			"smem_workers":     2,
			"classify_workers": 2,
			"min_accuracy":     0.80,
			"max_l1":           0.30,
		},
		Build: buildMetagenomics,
	})
}

func buildMetagenomics(p Params) (*Pipeline, error) {
	var (
		totalReads = p.Int("total_reads")
		meanLen    = p.Int("mean_len")
		errRate    = p.Get("error_rate")
		seed       = int64(p.Int("seed"))
		readSeed   = int64(p.Int("read_seed"))
		minAcc     = p.Get("min_accuracy")
		maxL1      = p.Get("max_l1")
	)
	names := []string{"e.coli-like", "s.aureus-like", "virus-like", "fungus-like"}
	sizes := []int{60_000, 45_000, 8_000, 90_000}
	trueMix := []float64{0.45, 0.30, 0.15, 0.10}

	// Pan-genome and FM-index are built once per pipeline; both
	// executors classify against the same snapshot.
	type span struct{ start, end int }
	rng := rand.New(rand.NewSource(seed))
	var pan genome.Seq
	catalog := make([]span, len(names))
	refs := make([]genome.Seq, len(names))
	for i, n := range names {
		ref := genome.NewReference(rng, n, sizes[i], 0.05)
		refs[i] = ref.Seq
		catalog[i] = span{start: len(pan), end: len(pan) + sizes[i]}
		pan = append(pan, ref.Seq...)
	}
	index := fmindex.Build(pan)

	pipe := &Pipeline{
		Source: func(ctx context.Context, emit func(any) error) error {
			sim := readsim.New(readSeed)
			cfg := readsim.DefaultLong()
			cfg.MeanLength = meanLen
			cfg.ErrorRate = errRate
			var reads []ClassifyRead
			for i, frac := range trueMix {
				n := int(frac * float64(totalReads))
				for _, r := range sim.LongReads(refs[i], -1, n, cfg, names[i]+"-") {
					reads = append(reads, ClassifyRead{Seq: r.Seq, Truth: i})
				}
			}
			shuf := rand.New(rand.NewSource(seed + 7))
			shuf.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
			for i := range reads {
				reads[i].Index = i
				if err := emit(reads[i]); err != nil {
					return err
				}
			}
			return nil
		},
		Stages: []Stage{
			{
				Name:     "smem",
				Workers:  p.Int("smem_workers"),
				NewState: func() any { return &smemState{} },
				Fn: func(ctx context.Context, w *Worker, v any, emit func(any) error) error {
					r := v.(ClassifyRead)
					st := w.State.(*smemState)
					st.seeds = index.LongSMEMs(st.seeds[:0], r.Seq, 25, &st.scratch)
					// Longest seeds first, with a position tiebreak so
					// seed selection is deterministic.
					smems := st.seeds
					slices.SortStableFunc(smems, func(a, b fmindex.SMEM) int {
						if a.Len() != b.Len() {
							return b.Len() - a.Len()
						}
						return a.QBeg - b.QBeg
					})
					if len(smems) > 3 {
						smems = smems[:3]
					}
					// The state's slice is scratch: the emitted read owns a
					// copy of its top seeds.
					return emit(&SeededRead{Read: r, Seeds: append([]fmindex.SMEM(nil), smems...)})
				},
			},
			{
				Name:    "classify",
				Workers: p.Int("classify_workers"),
				Fn: func(ctx context.Context, w *Worker, v any, emit func(any) error) error {
					sr := v.(*SeededRead)
					votes := make([]int, len(names))
					for _, m := range sr.Seeds {
						for _, pos := range index.LocateAll(sr.Read.Seq[m.QBeg:m.QEnd], 8) {
							if pos >= len(pan) {
								pos = 2*len(pan) - pos - m.Len() // reverse-strand hit
							}
							for si, sp := range catalog {
								if pos >= sp.start && pos < sp.end {
									votes[si] += m.Len()
								}
							}
						}
					}
					c := Classification{Index: sr.Read.Index, Truth: sr.Read.Truth, Species: -1}
					for si, v := range votes {
						if v > c.Votes {
							c.Species, c.Votes = si, v
						}
					}
					return emit(c)
				},
			},
		},
		Fold: func(d *Digest, v any) {
			c := v.(Classification)
			d.Int(c.Index)
			d.Int(c.Truth)
			d.Int(c.Species)
			d.Int(c.Votes)
		},
		Accept: func(final []any) error {
			correct, classified := 0, 0
			counts := make([]int, len(names))
			for _, v := range final {
				c := v.(Classification)
				if c.Species < 0 {
					continue
				}
				classified++
				counts[c.Species]++
				if c.Species == c.Truth {
					correct++
				}
			}
			if classified == 0 {
				return fmt.Errorf("metagenomics: no reads classified")
			}
			acc := float64(correct) / float64(classified)
			if acc < minAcc {
				return fmt.Errorf("metagenomics: accuracy %.2f below floor %.2f", acc, minAcc)
			}
			var l1 float64
			for i := range names {
				l1 += math.Abs(float64(counts[i])/float64(classified) - trueMix[i])
			}
			if l1 > maxL1 {
				return fmt.Errorf("metagenomics: abundance L1 error %.2f above ceiling %.2f", l1, maxL1)
			}
			return nil
		},
		Summary: func(final []any) string {
			correct, classified := 0, 0
			for _, v := range final {
				c := v.(Classification)
				if c.Species < 0 {
					continue
				}
				classified++
				if c.Species == c.Truth {
					correct++
				}
			}
			return fmt.Sprintf("%d reads: %d classified, %d correct (%d unclassified)",
				len(final), classified, correct, len(final)-classified)
		},
	}
	return pipe, nil
}
