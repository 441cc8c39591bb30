package abea

import (
	"math/rand"

	"repro/internal/genome"
	"repro/internal/signalsim"
)

// Methylation calling: the task ABEA exists for in Nanopolish. A
// methylated cytosine (5mC) in a CpG context shifts the pore current
// of every k-mer containing it; calling compares the event-alignment
// likelihood of a read region under the unmethylated versus the
// methylated pore model and reports the log-likelihood ratio.

// MethylatedModel derives a 5mC pore model from base: every k-mer
// containing a CG dinucleotide has its level shifted by a
// deterministic, context-dependent amount in the 1.5-3.5 pA range
// (the magnitude real 5mC shifts show on R9 pores).
func MethylatedModel(base *signalsim.PoreModel) *signalsim.PoreModel {
	m := &signalsim.PoreModel{
		Mean: append([]float32(nil), base.Mean...),
		Stdv: append([]float32(nil), base.Stdv...),
	}
	for code := range m.Mean {
		if !kmerHasCpG(uint64(code)) {
			continue
		}
		// Context-dependent but deterministic shift.
		h := uint64(code) * 0x9e3779b97f4a7c15
		shift := 1.5 + 2.0*float32(h>>40)/float32(1<<24)
		if h&1 == 0 {
			shift = -shift
		}
		m.Mean[code] += shift
	}
	return m
}

// kmerHasCpG reports whether the K-mer code contains a CG dinucleotide.
func kmerHasCpG(code uint64) bool {
	prev := genome.Base(code & 3) // last base
	for i := 1; i < signalsim.K; i++ {
		code >>= 2
		cur := genome.Base(code & 3)
		// cur precedes prev in sequence order.
		if cur == genome.C && prev == genome.G {
			return true
		}
		prev = cur
	}
	return false
}

// MethylCall is one site call.
type MethylCall struct {
	Site        int     // CpG position in the sequence
	LogLikRatio float32 // log P(events|methylated) - log P(events|unmethylated)
	Methylated  bool    // LogLikRatio above threshold
	CellUpdates uint64
}

// CallMethylation scores every CpG site of seq: the read is registered
// to the sequence once with a traced event alignment (as Nanopolish
// does), the events covering a window around each site are extracted
// from the trace, and the window is re-scored under both pore models;
// the log-likelihood ratio decides the call. threshold is the LLR
// above which a site is called methylated (Nanopolish uses ~2.0).
func CallMethylation(unmeth, meth *signalsim.PoreModel, seq genome.Seq, events []signalsim.Event, cfg Config, threshold float32) []MethylCall {
	var calls []MethylCall
	if len(seq) < signalsim.K+1 {
		return nil
	}
	nk := len(seq) - signalsim.K + 1
	trace := AlignTrace(unmeth, seq, events, cfg)
	const window = 40
	for pos := 0; pos+1 < len(seq); pos++ {
		if seq[pos] != genome.C || seq[pos+1] != genome.G {
			continue
		}
		lo := pos - window/2
		if lo < 0 {
			lo = 0
		}
		hi := pos + window/2
		if hi > len(seq) {
			hi = len(seq)
		}
		if hi-lo < signalsim.K+4 {
			continue
		}
		kLo := lo
		kHi := hi - signalsim.K + 1
		if kHi > nk {
			kHi = nk
		}
		var evs []signalsim.Event
		if !trace.OutOfBand && len(trace.Path) > 0 {
			reg := trace.EventsForKmer(kLo, kHi)
			if len(reg) >= 4 {
				evs = events[reg[0].Event : reg[len(reg)-1].Event+1]
			}
		}
		if evs == nil {
			// Trace unavailable: fall back to uniform event density.
			density := float64(len(events)) / float64(nk)
			evLo := int(float64(kLo) * density)
			evHi := int(float64(kHi) * density)
			if evLo < 0 {
				evLo = 0
			}
			if evHi > len(events) {
				evHi = len(events)
			}
			if evHi-evLo < 4 {
				continue
			}
			evs = events[evLo:evHi]
		}
		sub := seq[lo:hi]
		u := Align(unmeth, sub, evs, cfg)
		mm := Align(meth, sub, evs, cfg)
		llr := mm.Score - u.Score
		calls = append(calls, MethylCall{
			Site:        pos,
			LogLikRatio: llr,
			Methylated:  llr > threshold,
			CellUpdates: u.CellUpdates + mm.CellUpdates + trace.CellUpdates/uint64(max(1, nk/window)),
		})
	}
	return calls
}

// SimulateMethylatedRead simulates events for seq where CpG sites are
// methylated (drawn from the methylated model), for testing and the
// polishing example.
func SimulateMethylatedRead(rng *rand.Rand, meth *signalsim.PoreModel, seq genome.Seq, cfg signalsim.Config) []signalsim.Event {
	return signalsim.Simulate(rng, meth, seq, cfg)
}
