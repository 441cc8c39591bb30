package simio

import (
	"math/rand"
	"strconv"

	"repro/internal/genome"
)

// AlignSimConfig parameterizes simulated alignment records: reads are
// sampled from the reference and corrupted, with the true CIGAR
// recorded — standing in for the Minimap2-aligned ONT reads the paper's
// pileup kernel consumes.
type AlignSimConfig struct {
	MeanReadLen int
	SubRate     float64
	InsRate     float64
	DelRate     float64
	MeanQual    float64
	RefName     string
}

// DefaultAlignSim mirrors ONT alignments: long reads, ~10% error split
// across substitutions and indels.
func DefaultAlignSim() AlignSimConfig {
	return AlignSimConfig{
		MeanReadLen: 4000,
		SubRate:     0.04,
		InsRate:     0.03,
		DelRate:     0.03,
		MeanQual:    12,
		RefName:     "ref",
	}
}

// SimulateAlignments draws n alignment records against ref. Each
// record's CIGAR reflects exactly the edits applied to its read.
func SimulateAlignments(rng *rand.Rand, ref genome.Seq, n int, cfg AlignSimConfig) []*Alignment {
	out := make([]*Alignment, 0, n)
	for i := 0; i < n; i++ {
		length := cfg.MeanReadLen/2 + rng.Intn(cfg.MeanReadLen)
		if length >= len(ref) {
			length = len(ref) - 1
		}
		if length < 1 {
			break
		}
		pos := rng.Intn(len(ref) - length)
		a := simulateOne(rng, ref, pos, length, &cfg)
		var name [24]byte
		a.ReadName = string(strconv.AppendInt(append(name[:0], "aln-"...), int64(i), 10))
		a.Pack()
		out = append(out, a)
	}
	return out
}

// simulateOne corrupts ref[pos:pos+refLen] into one read. seq and qual
// start with room for the span plus 1/32 — at DefaultAlignSim's rates,
// about eight standard deviations of a 4 kb read's insertion surplus —
// and the CIGAR with room for a run per eight bases, so a record costs
// a handful of allocations; append still grows any of them past that
// capacity. The draws are one Float64 per reference base, then Intn(4)
// and two NormFloat64 on an insertion, Intn(3) and one NormFloat64 on
// a substitution, one NormFloat64 on a match, and Intn(2) for the
// strand: the draw order is the dataset, so it must not change.
func simulateOne(rng *rand.Rand, ref genome.Seq, pos, refLen int, cfg *AlignSimConfig) *Alignment {
	readCap := refLen + refLen/32 + 64
	seq := make(genome.Seq, 0, readCap)
	qual := make([]byte, 0, readCap)
	cig := make(Cigar, 0, refLen/8+1)
	for r := pos; r < pos+refLen; r++ {
		roll := rng.Float64()
		op := CigarMatch
		switch {
		case roll < cfg.DelRate:
			op = CigarDel
		case roll < cfg.DelRate+cfg.InsRate:
			seq = append(seq, genome.Base(rng.Intn(4)), ref[r])
			qual = append(qual, drawQual(rng, cfg.MeanQual), drawQual(rng, cfg.MeanQual))
			cig = extendCigar(cig, CigarIns) // ref[r] is the M below
		case roll < cfg.DelRate+cfg.InsRate+cfg.SubRate:
			alt := genome.Base(rng.Intn(3))
			if alt >= ref[r] {
				alt++
			}
			seq = append(seq, alt)
			qual = append(qual, drawQual(rng, cfg.MeanQual))
		default:
			seq = append(seq, ref[r])
			qual = append(qual, drawQual(rng, cfg.MeanQual))
		}
		cig = extendCigar(cig, op)
	}
	return &Alignment{
		RefName: cfg.RefName,
		Pos:     pos,
		MapQ:    60,
		Cigar:   cig,
		Seq:     seq,
		Qual:    qual,
		Reverse: rng.Intn(2) == 1,
	}
}

// extendCigar adds one base of op to the CIGAR's last run, or opens a
// run when the last is another op.
func extendCigar(cig Cigar, op CigarOp) Cigar {
	if n := len(cig); n > 0 && cig[n-1].Op == op {
		cig[n-1].Len++
		return cig
	}
	return append(cig, CigarElem{Len: 1, Op: op})
}

// drawQual draws one base quality around mean, clamped to [2, 60].
func drawQual(rng *rand.Rand, mean float64) byte {
	return byte(min(max(mean+rng.NormFloat64()*3, 2), 60))
}
