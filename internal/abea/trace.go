package abea

import (
	"repro/internal/genome"
	"repro/internal/signalsim"
)

// Alignment traceback: Nanopolish needs the event-to-k-mer
// registration, not just the score — methylation calling extracts the
// events covering each CpG site from it. AlignTrace stores a move code
// per band cell and walks the path back.

// EventAlignment pairs an event index with the k-mer it was emitted at.
type EventAlignment struct {
	Event int
	Kmer  int
}

// TraceResult extends Result with the aligned path.
type TraceResult struct {
	Result
	Path []EventAlignment // ascending event order; skips omit entries
}

// Move codes (2 bits would do; bytes keep it simple).
const (
	mvNone = 0
	mvStay = 1 // from (e-1, k)
	mvStep = 2 // from (e-1, k-1)
	mvSkip = 3 // from (e, k-1)
)

// AlignTrace runs the adaptive banded event alignment keeping the full
// banded move matrix, and reconstructs the best path. Memory cost is
// nBands x bandwidth bytes.
func AlignTrace(model *signalsim.PoreModel, seq genome.Seq, events []signalsim.Event, cfg Config) TraceResult {
	W := cfg.BandWidth
	if W < 4 {
		W = 4
	}
	nk := len(seq) - signalsim.K + 1
	ne := len(events)
	var res TraceResult
	if nk <= 0 || ne == 0 {
		res.Score = negInf
		return res
	}
	// The emission tables AlignLanesInto sweeps over: no KmerCode walk
	// or math.Log per band cell, same bits as LogProbMatch.
	tab := make([]float32, 3*nk)
	muK, sdK, lsK := tab[:nk], tab[nk:2*nk], tab[2*nk:]
	emissionTables(model, seq, muK, sdK, lsK)
	nBands := ne + nk + 1
	prev := make([]float32, W)
	prev2 := make([]float32, W)
	cur := make([]float32, W)
	for o := 0; o < W; o++ {
		prev[o], prev2[o] = negInf, negInf
	}
	ll := make([]bandPos, nBands)
	moves := make([]uint8, nBands*W)
	ll[0] = bandPos{e: -1 + W/2, k: -1 - W/2}
	prev2[W/2] = 0
	ll[1] = bandPos{e: ll[0].e + 1, k: ll[0].k}
	copy(cur, prev2)
	prev, prev2 = cur, prev
	cur = make([]float32, W)

	bestFinal := negInf
	foundFinal := false
	finalBand, finalOffset := -1, -1
	maxOffsetPrev := W / 2

	for i := 1; i < nBands; i++ {
		if i >= 2 {
			if maxOffsetPrev >= W/2 {
				ll[i] = bandPos{e: ll[i-1].e, k: ll[i-1].k + 1}
			} else {
				ll[i] = bandPos{e: ll[i-1].e + 1, k: ll[i-1].k}
			}
		}
		rowMax := negInf
		rowArg := 0
		base := i * W
		for o := 0; o < W; o++ {
			e := ll[i].e - o
			k := ll[i].k + o
			if e < -1 || k < -1 || e >= ne || k >= nk || (e == -1 && k == -1) {
				cur[o] = negInf
				continue
			}
			if e == -1 {
				cur[o] = lpSkip * float32(k+1)
				if cur[o] > rowMax {
					rowMax = cur[o]
					rowArg = o
				}
				continue
			}
			if k == -1 {
				cur[o] = negInf
				continue
			}
			res.CellUpdates++
			var up, left, diag float32 = negInf, negInf, negInf
			if o2 := ll[i-1].e - (e - 1); o2 >= 0 && o2 < W {
				up = prev[o2]
			}
			if o2 := ll[i-1].e - e; o2 >= 0 && o2 < W {
				left = prev[o2]
			}
			if i >= 2 {
				if o3 := ll[i-2].e - (e - 1); o3 >= 0 && o3 < W {
					diag = prev2[o3]
				}
			}
			emit := emission(events[e].Mean, muK[k], sdK[k], lsK[k])
			stay := up + lpStay + emit
			step := diag + lpStep + emit
			skip := left + lpSkip
			v := stay
			mv := uint8(mvStay)
			if step > v {
				v = step
				mv = mvStep
			}
			if skip > v {
				v = skip
				mv = mvSkip
			}
			cur[o] = v
			moves[base+o] = mv
			if v > rowMax {
				rowMax = v
				rowArg = o
			}
			if e == ne-1 && k == nk-1 && v > bestFinal {
				bestFinal = v
				foundFinal = true
				finalBand, finalOffset = i, o
			}
		}
		maxOffsetPrev = rowArg
		prev2, prev, cur = prev, cur, prev2
	}
	res.Score = bestFinal
	res.OutOfBand = !foundFinal
	res.Aligned = ne
	if !foundFinal {
		return res
	}

	// Backtrack: each move determines the predecessor cell; its band
	// index follows from the anti-diagonal (band = e + k + 2).
	var rev []EventAlignment
	i, o := finalBand, finalOffset
	for {
		e := ll[i].e - o
		k := ll[i].k + o
		if e < 0 || k < 0 {
			break
		}
		mv := moves[i*W+o]
		if mv == mvNone {
			break
		}
		var pe, pk int
		switch mv {
		case mvStay:
			rev = append(rev, EventAlignment{Event: e, Kmer: k})
			pe, pk = e-1, k
		case mvStep:
			rev = append(rev, EventAlignment{Event: e, Kmer: k})
			pe, pk = e-1, k-1
		case mvSkip:
			pe, pk = e, k-1
		}
		if pe < 0 || pk < 0 {
			break
		}
		pi := pe + pk + 2
		po := ll[pi].e - pe
		if po < 0 || po >= W {
			break // path left the band
		}
		i, o = pi, po
	}
	res.Path = make([]EventAlignment, len(rev))
	for idx := range rev {
		res.Path[idx] = rev[len(rev)-1-idx]
	}
	return res
}

// EventsForKmer returns the contiguous range of path entries whose
// k-mer index falls in [kLo, kHi), for extracting the events over a
// site of interest.
func (r *TraceResult) EventsForKmer(kLo, kHi int) []EventAlignment {
	var out []EventAlignment
	for _, p := range r.Path {
		if p.Kmer >= kLo && p.Kmer < kHi {
			out = append(out, p)
		}
	}
	return out
}
