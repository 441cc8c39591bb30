package fmindex

import "repro/internal/genome"

// SMEM is a super-maximal exact match: a read substring [QBeg,QEnd)
// that matches the indexed text and cannot be extended in either
// direction without losing all its occurrences.
type SMEM struct {
	QBeg, QEnd int
	Interval   BiInterval
}

// Len returns the match length.
func (m SMEM) Len() int { return m.QEnd - m.QBeg }

// Hits returns the occurrence count of the match.
func (m SMEM) Hits() int { return m.Interval.S }

// smemEntry is one right-maximal candidate during SMEM enumeration:
// the interval of a match ending at qend. Shared by the serial sweep
// (smem1) and the lock-step batch engine (batch.go), whose per-lane
// candidate lists must evolve exactly like smem1's.
type smemEntry struct {
	iv   BiInterval
	qend int
}

// smem1 enumerates all SMEMs passing through read position x,
// appending them to out and returning the position where the next
// search should start (the end of the longest SMEM found, or x+1).
// It mirrors BWA's bwt_smem1: a forward-extension sweep collecting
// intervals at every size change, then a backward sweep that reports
// matches the moment they stop being extendable. lookups counts Occ
// lookups performed (2 per bidirectional extension).
func (x *Index) smem1(read genome.Seq, pos, minLen, minHits int, out []SMEM, lookups *uint64, tr MemTracer) ([]SMEM, int) {
	type entry = smemEntry
	iv := x.extendBackward1(x.Root(), read[pos], tr)
	*lookups += 2
	if iv.S == 0 {
		return out, pos + 1
	}
	// Forward sweep: extend right, recording intervals whenever the
	// occurrence count drops (those are right-maximal candidates).
	var curr []entry
	for i := pos + 1; i <= len(read); i++ {
		if i == len(read) {
			curr = append(curr, entry{iv, i})
			break
		}
		next := x.extendForward1(iv, read[i], tr)
		*lookups += 2
		if next.S != iv.S {
			curr = append(curr, entry{iv, i})
		}
		if next.S == 0 {
			break
		}
		iv = next
	}
	// curr is ordered by increasing qend, i.e. decreasing occurrence
	// count. Reverse so the longest candidate comes first.
	for l, r := 0, len(curr)-1; l < r; l, r = l+1, r-1 {
		curr[l], curr[r] = curr[r], curr[l]
	}
	retPos := curr[0].qend

	// Backward sweep: extend all candidates left in lock step. When a
	// candidate dies (or the read starts), the longest still-alive
	// match ending at the previous boundary is super-maximal — unless
	// it is contained in an already-emitted match (same left boundary,
	// shorter right extent).
	prev := curr
	lastBeg := -2 // left boundary of the last emitted SMEM; -2 = none
	for i := pos - 1; i >= -1; i-- {
		var next []entry
		for _, e := range prev {
			var ext BiInterval
			if i >= 0 {
				ext = x.extendBackward1(e.iv, read[i], tr)
				*lookups += 2
			}
			if i < 0 || ext.S < minHits {
				// e cannot extend to i. Only the first dead candidate of
				// a round (the longest, since prev is ordered by
				// decreasing qend) can be super-maximal, and only when
				// its span is not contained in the previous emission.
				if len(next) == 0 && (lastBeg == -2 || i+1 < lastBeg) {
					if e.qend-(i+1) >= minLen {
						out = append(out, SMEM{QBeg: i + 1, QEnd: e.qend, Interval: e.iv})
					}
					lastBeg = i + 1
				}
				continue
			}
			// Candidate survives. Drop it if it collapses to the same
			// interval as the previously kept one (same occurrence set).
			if len(next) == 0 || ext.S != next[len(next)-1].iv.S {
				next = append(next, entry{ext, e.qend})
			}
		}
		if len(next) == 0 {
			break
		}
		prev = next
	}
	return out, retPos
}

// FindSMEMs enumerates all SMEMs of read with length ≥ minLen and at
// least minHits occurrences. lookups, when non-nil, accumulates the
// number of Occ-table lookups performed. Lookup addresses go to
// x.Tracer; concurrent searchers use FindSMEMsTraced with private
// tracers instead.
func (x *Index) FindSMEMs(read genome.Seq, minLen, minHits int, lookups *uint64) []SMEM {
	return x.FindSMEMsTraced(read, minLen, minHits, lookups, x.Tracer)
}

// FindSMEMsTraced is FindSMEMs routing the Occ/BWT address stream to
// tr (nil for none) instead of the shared x.Tracer field. This is the
// race-free way to trace concurrent searches: give every worker its
// own tracer and merge afterwards.
func (x *Index) FindSMEMsTraced(read genome.Seq, minLen, minHits int, lookups *uint64, tr MemTracer) []SMEM {
	var scratch uint64
	if lookups == nil {
		lookups = &scratch
	}
	if minHits < 1 {
		minHits = 1
	}
	var out []SMEM
	pos := 0
	for pos < len(read) {
		out, pos = x.smem1(read, pos, minLen, minHits, out, lookups, tr)
	}
	return out
}
