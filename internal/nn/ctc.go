package nn

import "sort"

// CTC decoding for basecalling: the network emits per-timestep
// probabilities over {blank, A, C, G, T}; decoding collapses repeats and
// removes blanks to produce the called sequence. Class 0 is the blank.

// CTCGreedyDecode appends to dst the best-path decoding of a (T,
// classes) probability (or logit) tensor: argmax per step, collapse
// runs, drop blanks. Output symbols are class-1 (so A=0 ... T=3 for 5
// classes).
func CTCGreedyDecode(dst []byte, probs Tensor) []byte {
	prev := -1
	for t := 0; t < probs.Rows; t++ {
		row := probs.Row(t)
		best := 0
		for c := 1; c < len(row); c++ {
			if row[c] > row[best] {
				best = c
			}
		}
		if best != prev && best != 0 {
			dst = append(dst, byte(best-1))
		}
		prev = best
	}
	return dst
}

// ctcHyp is one beam-search hypothesis: probability mass split by
// whether the path ends in a blank.
type ctcHyp struct {
	seq               string
	pBlank, pNonBlank float64
}

// CTCBeamDecode performs prefix beam search over a (T, classes)
// probability tensor (rows must be normalized probabilities, e.g. after
// Softmax). beamWidth bounds the live hypothesis count.
func CTCBeamDecode(probs Tensor, beamWidth int) []byte {
	if beamWidth < 1 {
		beamWidth = 1
	}
	beams := map[string]*ctcHyp{"": {seq: "", pBlank: 1}}
	for t := 0; t < probs.Rows; t++ {
		row := probs.Row(t)
		next := make(map[string]*ctcHyp, len(beams)*len(row))
		get := func(seq string) *ctcHyp {
			h, ok := next[seq]
			if !ok {
				h = &ctcHyp{seq: seq}
				next[seq] = h
			}
			return h
		}
		for _, h := range beams {
			total := h.pBlank + h.pNonBlank
			// Extend with blank: sequence unchanged.
			get(h.seq).pBlank += total * float64(row[0])
			for c := 1; c < len(row); c++ {
				p := float64(row[c])
				if p == 0 {
					continue
				}
				sym := byte('A' + c - 1)
				lastSame := len(h.seq) > 0 && h.seq[len(h.seq)-1] == sym
				if lastSame {
					// Repeat symbol: only paths ending in blank extend the
					// sequence; non-blank paths merge into the same sequence.
					get(h.seq).pNonBlank += h.pNonBlank * p
					get(h.seq + string(sym)).pNonBlank += h.pBlank * p
				} else {
					get(h.seq + string(sym)).pNonBlank += total * p
				}
			}
		}
		// Prune to beamWidth.
		hyps := make([]*ctcHyp, 0, len(next))
		for _, h := range next {
			hyps = append(hyps, h)
		}
		sort.Slice(hyps, func(i, j int) bool {
			return hyps[i].pBlank+hyps[i].pNonBlank > hyps[j].pBlank+hyps[j].pNonBlank
		})
		if len(hyps) > beamWidth {
			hyps = hyps[:beamWidth]
		}
		beams = make(map[string]*ctcHyp, len(hyps))
		for _, h := range hyps {
			beams[h.seq] = h
		}
	}
	var best *ctcHyp
	for _, h := range beams {
		if best == nil || h.pBlank+h.pNonBlank > best.pBlank+best.pNonBlank {
			best = h
		}
	}
	if best == nil {
		return nil
	}
	out := make([]byte, len(best.seq))
	for i := 0; i < len(best.seq); i++ {
		out[i] = best.seq[i] - 'A'
	}
	return out
}
