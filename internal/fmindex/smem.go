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

// SMEMScratch is the caller-owned candidate scratch of LongSMEMs. Its
// slices are grow-only, so a warm scratch searches without allocating,
// and it is tied to no index: one scratch serves any index, one search
// at a time.
type SMEMScratch struct {
	curr, next []smemEntry
}

// smem1 enumerates all SMEMs passing through read position pos,
// appending them to out and returning the position where the next
// search should start (the end of the longest SMEM found, or pos+1).
// It mirrors BWA's bwt_smem1: a forward-extension sweep collecting
// intervals at every size change, then a backward sweep that reports
// matches the moment they stop being extendable. lookups counts Occ
// lookups performed (2 per bidirectional extension).
//
// Only candidates with qend >= floor enter the backward sweep. A caller
// that knows no match through pos starts before left passes floor =
// left+minLen: a dropped candidate could only end in an SMEM shorter
// than minLen, and since each round visits candidates in decreasing
// qend the dropped ones trail the kept ones, so they never change the
// survivor and containment tests a kept candidate sees. The SMEMs and
// the returned position are those of floor 0, which keeps every
// candidate (qend > pos always).
func (x *Index) smem1(read genome.Seq, pos, minLen, minHits, floor int, out []SMEM, s *SMEMScratch, lookups *uint64, tr MemTracer) ([]SMEM, int) {
	iv := x.extendBackward1(x.Root(), read[pos], tr)
	*lookups += 2
	if iv.S == 0 {
		return out, pos + 1
	}
	// Forward sweep: extend right, recording intervals whenever the
	// occurrence count drops (those are right-maximal candidates).
	curr := s.curr[:0]
	i := pos + 1
	for ; i < len(read); i++ {
		next := x.extendForward1(iv, read[i], tr)
		*lookups += 2
		if next.S != iv.S && i >= floor {
			curr = append(curr, smemEntry{iv, i})
		}
		if next.S == 0 {
			break
		}
		iv = next
	}
	if i == len(read) && i >= floor {
		curr = append(curr, smemEntry{iv, i})
	}
	// The longest candidate ends at i, so that is where the next search
	// starts, whether or not the floor kept it.
	retPos := i
	// curr is ordered by increasing qend, i.e. decreasing occurrence
	// count. Reverse so the longest candidate comes first.
	for l, r := 0, len(curr)-1; l < r; l, r = l+1, r-1 {
		curr[l], curr[r] = curr[r], curr[l]
	}

	// Backward sweep: extend all candidates left in lock step. When a
	// candidate dies (or the read starts), the longest still-alive
	// match ending at the previous boundary is super-maximal — unless
	// it is contained in an already-emitted match (same left boundary,
	// shorter right extent).
	prev, next := curr, s.next[:0]
	lastBeg := -2 // left boundary of the last emitted SMEM; -2 = none
	for i := pos - 1; i >= -1 && len(prev) > 0; i-- {
		next = next[:0]
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
				next = append(next, smemEntry{ext, e.qend})
			}
		}
		prev, next = next, prev
	}
	s.curr, s.next = prev, next
	return out, retPos
}

// walkSMEMs appends every SMEM of read to out, one smem1 per anchor.
// With prune set it floors each anchor's candidates at left+minLen,
// where left is the first read position a match through the anchor
// can start at: the previous anchor + 1, because that anchor's forward
// sweep proved read[prev..anchor] absent from the text (or its base
// alone was absent). Without prune every candidate is kept, so the Occ
// lookups are exactly the reference walk's.
func (x *Index) walkSMEMs(out []SMEM, read genome.Seq, minLen, minHits int, prune bool, s *SMEMScratch, lookups *uint64, tr MemTracer) []SMEM {
	if minHits < 1 {
		minHits = 1
	}
	for pos, left := 0, 0; pos < len(read); {
		floor := 0
		if prune {
			floor = left + minLen
		}
		left = pos + 1
		out, pos = x.smem1(read, pos, minLen, minHits, floor, out, s, lookups, tr)
	}
	return out
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
// own tracer and merge afterwards. It backward-extends every candidate,
// so its lookup count is the one the BatchEngine and fmi reproduce.
func (x *Index) FindSMEMsTraced(read genome.Seq, minLen, minHits int, lookups *uint64, tr MemTracer) []SMEM {
	var scratch uint64
	if lookups == nil {
		lookups = &scratch
	}
	var s SMEMScratch
	return x.walkSMEMs(nil, read, minLen, minHits, false, &s, lookups, tr)
}

// LongSMEMs appends to dst the SMEMs of read with length ≥ minLen and
// at least one occurrence: FindSMEMs(read, minLen, 1, nil)'s matches in
// its order. It skips the backward extensions of candidates that
// cannot reach minLen, so it does fewer Occ lookups, and it allocates
// nothing once s and dst have grown. Nothing is traced.
func (x *Index) LongSMEMs(dst []SMEM, read genome.Seq, minLen int, s *SMEMScratch) []SMEM {
	var lookups uint64
	return x.walkSMEMs(dst, read, minLen, 1, true, s, &lookups, nil)
}
