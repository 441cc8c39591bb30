package repro

// Integration tests: full pipelines crossing module boundaries, run on
// small seeded datasets with quantitative accuracy assertions, so a
// regression anywhere along a pipeline fails loudly.

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/abea"
	"repro/internal/bsw"
	"repro/internal/chain"
	"repro/internal/dbg"
	"repro/internal/fmindex"
	"repro/internal/genome"
	"repro/internal/nnbase"
	"repro/internal/nnvariant"
	"repro/internal/phmm"
	"repro/internal/pileup"
	"repro/internal/poa"
	"repro/internal/readsim"
	"repro/internal/signalsim"
	"repro/internal/simio"
)

func TestPipelineShortReadAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := genome.NewReference(rng, "chr", 50_000, 0.05)
	index := fmindex.Build(ref.Seq)
	sim := readsim.New(2)
	reads := sim.ShortReads(ref.Seq, -1, 100, readsim.DefaultShort(), "r")

	params := bsw.DefaultParams()
	correct := 0
	for _, read := range reads {
		smems := index.FindSMEMs(read.Seq, 19, 1, nil)
		if len(smems) == 0 {
			continue
		}
		best := smems[0]
		for _, m := range smems[1:] {
			if m.Len() > best.Len() {
				best = m
			}
		}
		positions := index.LocateAll(read.Seq[best.QBeg:best.QEnd], 2)
		if len(positions) == 0 {
			continue
		}
		pos := positions[0]
		query := read.Seq
		offset := best.QBeg
		if pos >= len(ref.Seq) {
			pos = 2*len(ref.Seq) - pos - best.Len()
			query = read.Seq.ReverseComplement()
			offset = len(read.Seq) - best.QEnd
		}
		start := pos - offset - 5
		if start < 0 {
			start = 0
		}
		end := start + len(query) + 10
		if end > len(ref.Seq) {
			end = len(ref.Seq)
		}
		res := bsw.Align(query, ref.Seq[start:end], params)
		if res.Score < len(query)/2 {
			continue
		}
		if d := start - read.RefPos; d > -20 && d < 20 {
			correct++
		}
	}
	if correct < 80 {
		t.Errorf("only %d/100 reads aligned near their origin", correct)
	}
}

func TestPipelineVariantCallingWithVCF(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const refLen = 12_000
	const regionSize = 400
	ref := genome.NewReference(rng, "chr22", refLen, 0)
	donor := genome.PlantVariants(rng, ref, 0.002, 0.0002)
	sim := readsim.New(4)
	cfg := readsim.DefaultShort()
	cfg.Length = 100
	reads := sim.CoverageReads(donor, 35, cfg, "rd")

	nRegions := refLen / regionSize
	regionReads := make([][]genome.Seq, nRegions)
	regionQuals := make([][][]byte, nRegions)
	for _, r := range reads {
		rg := r.RefPos / regionSize
		if rg >= nRegions {
			rg = nRegions - 1
		}
		seq := r.Seq
		if r.Reverse {
			seq = seq.ReverseComplement()
		}
		regionReads[rg] = append(regionReads[rg], seq)
		regionQuals[rg] = append(regionQuals[rg], r.Qual)
	}

	var calls []simio.VCFRecord
	calledRegions := map[int]bool{}
	for rg := 0; rg < nRegions; rg++ {
		start := rg * regionSize
		region := &dbg.Region{Ref: ref.Seq[start : start+regionSize], Reads: regionReads[rg]}
		asm := dbg.NewAssembler().AssembleRegion(region, dbg.DefaultConfig())
		if len(asm.Haplotypes) < 2 {
			continue
		}
		ph := &phmm.Region{Reads: regionReads[rg], Quals: regionQuals[rg], Haps: asm.Haplotypes}
		res := phmm.EvaluateRegionScalarInto(ph, nil)
		support := make([]int, len(asm.Haplotypes))
		for _, h := range res.BestHap {
			support[h]++
		}
		refIdx := -1
		for h, hap := range asm.Haplotypes {
			if hap.Equal(region.Ref) {
				refIdx = h
			}
		}
		for h, s := range support {
			if h != refIdx && s >= len(ph.Reads)/5 {
				calledRegions[rg] = true
				gt := simio.Het
				if refIdx >= 0 && support[refIdx] < len(ph.Reads)/10 {
					gt = simio.HomAlt
				}
				calls = append(calls, simio.VCFRecord{
					Chrom: "chr22", Pos: start,
					Ref:  region.Ref[:1],
					Alt:  asm.Haplotypes[h][:1],
					Qual: float64(s), Genotype: gt,
				})
				break
			}
		}
	}

	var recovered int
	for _, v := range donor.Variants {
		if calledRegions[v.Pos/regionSize] {
			recovered++
		}
	}
	recall := float64(recovered) / float64(len(donor.Variants))
	if recall < 0.5 {
		t.Errorf("recall %.2f below 0.5 (%d/%d variants)", recall, recovered, len(donor.Variants))
	}

	// Every call must reach the VCF as one data line.
	var buf bytes.Buffer
	if err := simio.WriteVCF(&buf, "donor", calls); err != nil {
		t.Fatal(err)
	}
	var lines int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.HasPrefix(line, "#") {
			lines++
		}
	}
	if lines != len(calls) {
		t.Errorf("VCF holds %d records for %d calls", lines, len(calls))
	}
}

func TestPipelineOverlapDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := genome.NewReference(rng, "asm", 30_000, 0.05)
	sim := readsim.New(6)
	cfg := readsim.DefaultLong()
	cfg.MeanLength = 5000
	cfg.ErrorRate = 0.08
	reads := sim.LongReads(src.Seq, -1, 24, cfg, "lr")

	var tp, fp, fn int
	for i := 0; i < len(reads); i++ {
		for j := i + 1; j < len(reads); j++ {
			a, b := reads[i], reads[j]
			if a.Reverse || b.Reverse {
				continue
			}
			trueOv := overlap(a.RefPos, a.RefEnd, b.RefPos, b.RefEnd)
			anchors := chain.SharedAnchors(a.Seq, b.Seq, 15, 10, 100)
			chains, _ := chain.ChainAnchors(anchors, chain.DefaultConfig(), nil)
			found := len(chains) > 0
			switch {
			case found && trueOv > 1000:
				tp++
			case found && trueOv == 0:
				fp++
			case !found && trueOv > 2000:
				fn++
			}
		}
	}
	if tp == 0 {
		t.Fatal("no true overlaps detected")
	}
	if fp > tp/4 {
		t.Errorf("too many false overlaps: tp=%d fp=%d", tp, fp)
	}
	if fn > tp {
		t.Errorf("missing too many overlaps: tp=%d fn=%d", tp, fn)
	}
}

func overlap(a0, a1, b0, b1 int) int {
	lo, hi := a0, a1
	if b0 > lo {
		lo = b0
	}
	if b1 < hi {
		hi = b1
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

func TestPipelinePolishingImprovesConsensus(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	truth := genome.Random(rng, 250)
	w := &poa.Window{}
	var worst int
	for r := 0; r < 10; r++ {
		read := truth.Clone()
		for m := 0; m < 12; m++ {
			switch rng.Intn(3) {
			case 0:
				read[rng.Intn(len(read))] = genome.Base(rng.Intn(4))
			case 1:
				p := rng.Intn(len(read))
				read = append(read[:p], read[p+1:]...)
			default:
				p := rng.Intn(len(read))
				read = append(read[:p], append(genome.Seq{genome.Base(rng.Intn(4))}, read[p:]...)...)
			}
		}
		w.Sequences = append(w.Sequences, read)
		if e := nnbase.EditDistance(read, truth); e > worst {
			worst = e
		}
	}
	cons, _ := poa.ConsensusInto(w, poa.DefaultParams(), poa.New())
	after := nnbase.EditDistance(cons, truth)
	if after >= worst {
		t.Errorf("consensus edit distance %d not below worst read %d", after, worst)
	}
	if after > 8 {
		t.Errorf("consensus edit distance %d too high for 10x coverage", after)
	}
}

func TestPipelinePileupToVariantTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ref := genome.NewReference(rng, "chr", 5_000, 0)
	// Plant a het SNV and simulate aligned reads around it.
	alt := ref.Seq.Clone()
	alt[2500] = genome.Complement(alt[2500])
	cfg := simio.AlignSimConfig{MeanReadLen: 400, SubRate: 0.005, InsRate: 0.002, DelRate: 0.002, MeanQual: 30, RefName: "chr"}
	alns := simio.SimulateAlignments(rng, ref.Seq, 60, cfg)
	alns = append(alns, simio.SimulateAlignments(rng, alt, 60, cfg)...)
	regions := pileup.SplitRegions(5000, alns, 5000)
	counts, _ := pileup.CountRegion(regions[0], nil)
	// The SNV position must show mixed support.
	c := &counts[2500]
	refBase := ref.Seq[2500]
	altBase := alt[2500]
	refSupport := c.Base[0][refBase] + c.Base[1][refBase]
	altSupport := c.Base[0][altBase] + c.Base[1][altBase]
	if refSupport == 0 || altSupport == 0 {
		t.Fatalf("het site lacks mixed support: ref %d alt %d (depth %d)", refSupport, altSupport, c.Depth())
	}
}

func TestPipelineSignalToEventsToAlignment(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pore := signalsim.NewPoreModel()
	seq := genome.Random(rng, 600)
	events := signalsim.Simulate(rng, pore, seq, signalsim.DefaultConfig())
	right := abea.AlignLanesInto(pore, seq, events, abea.DefaultConfig(), nil)
	if right.OutOfBand {
		t.Fatal("alignment fell out of band")
	}
	wrong := abea.AlignLanesInto(pore, genome.Random(rng, 600), events, abea.DefaultConfig(), nil)
	if right.Score <= wrong.Score {
		t.Errorf("true sequence %f not preferred over random %f", right.Score, wrong.Score)
	}
}

func TestPipelineLongReadCalling(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const refLen = 10_000
	ref := genome.NewReference(rng, "chr", refLen, 0.05)
	donor := genome.PlantVariants(rng, ref, 0.001, 0)
	// The donor is SNP-only, so each haplotype's coordinates are the
	// reference's, and alignments simulated against a haplotype place
	// its reads on the reference.
	acfg := simio.AlignSimConfig{
		MeanReadLen: 2500, SubRate: 0.02, InsRate: 0.015, DelRate: 0.015,
		MeanQual: 12, RefName: "chr",
	}
	var alignments []*simio.Alignment
	for _, hap := range donor.Haps {
		alignments = append(alignments, simio.SimulateAlignments(rng, hap, 40, acfg)...)
	}
	// Candidate selection surfaces most planted variants.
	regions := pileup.SplitRegions(refLen, alignments, 5000)
	candidate := map[int]bool{}
	for _, rg := range regions {
		counts, _ := pileup.CountRegion(rg, nil)
		for _, p := range nnvariant.SelectCandidates(counts, ref.Seq, rg.Start, 8, 0.25) {
			candidate[rg.Start+p] = true
		}
	}
	recovered := 0
	for _, v := range donor.Variants {
		for d := -2; d <= 2; d++ {
			if candidate[v.Pos+d] {
				recovered++
				break
			}
		}
	}
	if recovered*2 < len(donor.Variants) {
		t.Errorf("candidate recall %d/%d too low", recovered, len(donor.Variants))
	}
}

func TestPipelineBasecallRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pore := signalsim.NewPoreModel()
	seq := genome.Random(rng, 400)
	signal := signalsim.RawSignal(rng, pore, seq, signalsim.DefaultConfig())
	cfg := nnbase.DefaultConfig()
	cfg.Channels = 16
	cfg.Blocks = 2
	m := nnbase.NewModel(5, cfg)
	called, macs := m.Basecall(signal, cfg, nil)
	if macs == 0 {
		t.Fatal("no computation performed")
	}
	// Untrained network: assert structural sanity only.
	if len(called) == 0 {
		t.Fatal("no bases called")
	}
	if len(called) > len(signal) {
		t.Errorf("called %d bases from %d samples", len(called), len(signal))
	}
}
