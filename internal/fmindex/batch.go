package fmindex

import (
	"unsafe"

	"repro/internal/genome"
	"repro/internal/prefetch"
)

// Batched lock-step SMEM search. The serial walk (FindSMEMs) is the
// paper's textbook memory-bound loop: every backward extension is one
// dependent Occ lookup — one 64-byte block at an unpredictable
// address — so the whole search serializes on cache misses. But the
// NEXT lookup's addresses are known the moment the current interval
// is, one full step before the rank is computed. The BatchEngine
// exploits that: it keeps W reads' query states in flight, advances
// them round-robin one extension at a time, and issues each state's
// next block prefetches when the state is parked —
// a full rotation (W-1 other lanes' compute) before the lane consumes
// the data. That converts W serial miss latencies into overlapped
// ones, the software-prefetch batching BWA-MEM2 applies to this exact
// kernel (Vasimuddin et al., IPDPS 2019).
//
// The schedule reorders work only BETWEEN reads, never within one:
// each lane replays smem1's forward/backward sweeps operation for
// operation, so per-read output — SMEMs, their order, and the Occ
// lookup count — is bit-identical to FindSMEMsTraced, and width is
// pure dispatch policy (see batch_test.go's differentials).

// Prefetcher is the optional MemTracer extension for software-prefetch
// visibility: tracers that implement it (cachesim.Hierarchy does)
// receive the engine's prefetch stream at the same synthetic addresses
// occAt traces, so the simulator can score the reordered stream's miss
// overlap. Plain MemTracers see only the demand stream — exactly the
// addresses the serial search would issue, per read.
type Prefetcher interface {
	Prefetch(addr uint64, size int)
}

// lanePhase is the pending operation of one in-flight query state.
type lanePhase uint8

const (
	phIdle     lanePhase = iota // no read loaded
	phInit                      // root backward extension at the anchor
	phForward                   // forward extension of iv at index i
	phBackward                  // backward extension of curr[entryIdx] at row i
)

// batchLane is one in-flight read's resumable smem1 state. The slices
// are grow-only scratch: steady-state operation allocates nothing.
type batchLane struct {
	readIdx int
	read    genome.Seq
	phase   lanePhase

	pos    int        // current anchor position
	i      int        // forward index / backward row
	iv     BiInterval // forward sweep interval
	retPos int        // next anchor (longest candidate's qend)

	entryIdx int         // cursor into curr during the backward sweep
	lastBeg  int         // left bound of the last emitted SMEM; -2 none
	curr     []smemEntry // candidates being consumed this round
	next     []smemEntry // survivors being built for the next round

	out     []SMEM
	lookups uint64
}

// BatchEngine schedules W in-flight SMEM searches in lock step over
// one index. It is single-goroutine state (one engine per worker, each
// with its own tracer); concurrent searches use separate engines.
type BatchEngine struct {
	x      *Index
	width  int
	tr     MemTracer
	pt     Prefetcher
	lanes  []batchLane
	minLen int
	minHit int
}

// BatchWidth is the engine's default lane count: the W of the
// lock-step schedule. Widths 8, 16 and 32 timed alike on fmi at Large
// (docs/PERFORMANCE.md), and any width yields bit-identical SMEMs
// (TestSmemBatchForcedWidths).
const BatchWidth = 16

// NewBatchEngine builds an engine of the given width over x; width<=0
// means BatchWidth. tr (nil for none) receives the demand address
// stream; if it also implements Prefetcher it receives the prefetch
// stream.
func NewBatchEngine(x *Index, width int, tr MemTracer) *BatchEngine {
	if width <= 0 {
		width = BatchWidth
	}
	e := &BatchEngine{x: x, width: width, tr: tr, lanes: make([]batchLane, width)}
	if tr != nil {
		e.pt, _ = tr.(Prefetcher)
	}
	return e
}

// Run enumerates SMEMs for every read, W reads in flight at a time.
// admit (nil for none) is called once per read as it is loaded into a
// lane — the kernel's per-read fault/cancellation point; a non-nil
// error aborts the whole run. emit is called once per read, in lane
// completion order, with that read's SMEMs (same matches, same order,
// same lookup count as FindSMEMsTraced); the slice is engine scratch,
// valid only until the lane is reused — callers keep counts or copy.
func (e *BatchEngine) Run(reads []genome.Seq, minLen, minHits int, admit func(read int) error, emit func(read int, smems []SMEM, lookups uint64)) error {
	if minHits < 1 {
		minHits = 1
	}
	e.minLen, e.minHit = minLen, minHits
	nextRead := 0
	active := 0

	// refill loads the next unprocessed read into ln, emitting empty
	// reads inline (they perform no lookups, exactly like the serial
	// walk, whose position loop never runs). It reports whether the
	// lane is live again.
	refill := func(ln *batchLane) (bool, error) {
		for nextRead < len(reads) {
			idx := nextRead
			nextRead++
			if admit != nil {
				if err := admit(idx); err != nil {
					return false, err
				}
			}
			ln.readIdx = idx
			ln.read = reads[idx]
			ln.out = ln.out[:0]
			ln.lookups = 0
			ln.pos = 0
			if len(ln.read) == 0 {
				emit(idx, ln.out, 0)
				continue
			}
			ln.phase = phInit
			e.prefetchBackward(e.x.Root())
			return true, nil
		}
		ln.phase = phIdle
		return false, nil
	}

	for l := range e.lanes {
		ok, err := refill(&e.lanes[l])
		if err != nil {
			return err
		}
		if ok {
			active++
		}
	}
	for active > 0 {
		for l := range e.lanes {
			ln := &e.lanes[l]
			if ln.phase == phIdle {
				continue
			}
			if done := e.advance(ln); done {
				emit(ln.readIdx, ln.out, ln.lookups)
				ok, err := refill(ln)
				if err != nil {
					return err
				}
				if !ok {
					active--
				}
			}
		}
	}
	return nil
}

// advance performs ln's one pending extension (whose addresses were
// prefetched when the lane was parked) plus any pure-compute
// transitions after it, leaving the lane either parked on its next
// prefetched extension or done with its read.
func (e *BatchEngine) advance(ln *batchLane) (readDone bool) {
	switch ln.phase {
	case phInit:
		iv := e.x.extendBackward1(e.x.Root(), ln.read[ln.pos], e.tr)
		ln.lookups += 2
		if iv.S == 0 {
			return e.nextAnchor(ln, ln.pos+1)
		}
		ln.iv = iv
		ln.curr = ln.curr[:0]
		ln.i = ln.pos + 1
		return e.parkForward(ln)

	case phForward:
		next := e.x.extendForward1(ln.iv, ln.read[ln.i], e.tr)
		ln.lookups += 2
		if next.S != ln.iv.S {
			ln.curr = append(ln.curr, smemEntry{ln.iv, ln.i})
		}
		if next.S == 0 {
			return e.startBackward(ln)
		}
		ln.iv = next
		ln.i++
		return e.parkForward(ln)

	case phBackward:
		return e.backwardStep(ln)
	}
	return false
}

// parkForward parks ln on its next forward extension, or — when the
// sweep has run off the read end — records the final candidate and
// pivots into the backward sweep (pure compute, no extra rotation).
func (e *BatchEngine) parkForward(ln *batchLane) (readDone bool) {
	if ln.i == len(ln.read) {
		ln.curr = append(ln.curr, smemEntry{ln.iv, ln.i})
		return e.startBackward(ln)
	}
	ln.phase = phForward
	e.prefetchForward(ln.iv)
	return false
}

// startBackward mirrors smem1's pivot: reverse the candidates so the
// longest comes first, remember the next anchor, and park the lane on
// the first backward extension. curr is never empty here — the forward
// sweep always records at least one candidate before stopping.
func (e *BatchEngine) startBackward(ln *batchLane) (readDone bool) {
	for l, r := 0, len(ln.curr)-1; l < r; l, r = l+1, r-1 {
		ln.curr[l], ln.curr[r] = ln.curr[r], ln.curr[l]
	}
	ln.retPos = ln.curr[0].qend
	ln.lastBeg = -2
	ln.i = ln.pos - 1
	ln.entryIdx = 0
	ln.next = ln.next[:0]
	if ln.i < 0 {
		e.finalRound(ln)
		return e.nextAnchor(ln, ln.retPos)
	}
	ln.phase = phBackward
	e.prefetchBackward(ln.curr[0].iv)
	return false
}

// backwardStep consumes one candidate of the current backward round —
// smem1's inner loop body, one entry per rotation.
func (e *BatchEngine) backwardStep(ln *batchLane) (readDone bool) {
	ent := ln.curr[ln.entryIdx]
	ext := e.x.extendBackward1(ent.iv, ln.read[ln.i], e.tr)
	ln.lookups += 2
	if ext.S < e.minHit {
		// Candidate died. Only the first dead candidate of a round can
		// be super-maximal, and only when not contained in the previous
		// emission (same guard, same order as smem1).
		if len(ln.next) == 0 && (ln.lastBeg == -2 || ln.i+1 < ln.lastBeg) {
			if ent.qend-(ln.i+1) >= e.minLen {
				ln.out = append(ln.out, SMEM{QBeg: ln.i + 1, QEnd: ent.qend, Interval: ent.iv})
			}
			ln.lastBeg = ln.i + 1
		}
	} else if len(ln.next) == 0 || ext.S != ln.next[len(ln.next)-1].iv.S {
		ln.next = append(ln.next, smemEntry{ext, ent.qend})
	}
	ln.entryIdx++
	if ln.entryIdx < len(ln.curr) {
		e.prefetchBackward(ln.curr[ln.entryIdx].iv)
		return false
	}
	// Round complete.
	if len(ln.next) == 0 {
		return e.nextAnchor(ln, ln.retPos)
	}
	ln.curr, ln.next = ln.next, ln.curr[:0]
	ln.i--
	ln.entryIdx = 0
	if ln.i < 0 {
		e.finalRound(ln)
		return e.nextAnchor(ln, ln.retPos)
	}
	ln.phase = phBackward
	e.prefetchBackward(ln.curr[0].iv)
	return false
}

// finalRound is smem1's i == -1 round: every surviving candidate hits
// the read start, no Occ lookups happen, and only the first (longest)
// candidate can emit — after it sets lastBeg to 0, the containment
// guard i+1 < lastBeg fails for the rest.
func (e *BatchEngine) finalRound(ln *batchLane) {
	ent := ln.curr[0]
	if ln.lastBeg == -2 || ln.lastBeg > 0 {
		if ent.qend >= e.minLen {
			ln.out = append(ln.out, SMEM{QBeg: 0, QEnd: ent.qend, Interval: ent.iv})
		}
	}
}

// nextAnchor moves the lane to its next anchor position, or reports
// the read done.
func (e *BatchEngine) nextAnchor(ln *batchLane, pos int) (readDone bool) {
	ln.pos = pos
	if pos >= len(ln.read) {
		ln.phase = phIdle
		return true
	}
	ln.phase = phInit
	e.prefetchBackward(e.x.Root())
	return false
}

// prefetchBackward issues the prefetches for a pending backward
// extension of iv: occAt at K and K+S. A width-1 engine issues none:
// the lane consumes the line on its very next step, so there is no
// other lane's work to hide the fetch behind.
func (e *BatchEngine) prefetchBackward(iv BiInterval) {
	if e.width > 1 {
		e.prefetchOcc(iv.K)
		e.prefetchOcc(iv.K + iv.S)
	}
}

// prefetchForward issues the prefetches for a pending forward
// extension of iv — a backward extension on the reverse-complement
// coordinates: occAt at L and L+S.
func (e *BatchEngine) prefetchForward(iv BiInterval) {
	if e.width > 1 {
		e.prefetchOcc(iv.L)
		e.prefetchOcc(iv.L + iv.S)
	}
}

// prefetchOcc pulls the one line occAt(p) will touch toward the core,
// and mirrors it into the trace's prefetch stream at the address occAt
// will report for the demand access.
func (e *BatchEngine) prefetchOcc(p int) {
	prefetch.Ptr(unsafe.Pointer(&e.x.blocks[p>>6]))
	if e.pt != nil {
		e.pt.Prefetch(uint64(p)&^63, 64)
	}
}
