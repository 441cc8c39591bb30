package kmercnt

import (
	"unsafe"

	"repro/internal/prefetch"
	"repro/internal/seq2"
)

// Wave-batched counting: the paper observes that kmer-cnt's stalls
// "could potentially be mitigated by implementing software prefetching,
// since the k-mers to be looked up are known in advance". This is the
// hash-table sibling of fmindex's lock-step batch engine: k-mers are
// collected into a wave, every wave member's primary slot is software-
// prefetched (PREFETCHT0/PRFM via internal/prefetch), and the inserts
// then run over lines already in flight — W independent misses overlap
// instead of serializing. Insert order within a wave is unchanged, so
// tables are bit-identical to the serial counters'.

// WaveWidth is the prefetch window: how many k-mer slots are issued
// before the first insert consumes one. Waves of 16 to 128 timed alike
// on kmer-cnt at Large (docs/PERFORMANCE.md); hash probes carry no
// per-lane state, so a wide wave stays cheap. Width is pure dispatch
// policy — any value yields identical tables.
const WaveWidth = 64

// Prefetcher is the optional MemTracer extension for software-prefetch
// visibility (cachesim.Hierarchy implements it). Tracers without it see
// only the demand stream — identical, insert for insert, to the serial
// counters'.
type Prefetcher interface {
	Prefetch(addr uint64, size int)
}

// prefetchSlot pulls a key's primary slot lines toward the core and
// mirrors them into pt's prefetch stream (at the same synthetic
// addresses trace uses). Collision chains past the primary slot are
// not prefetched — they are the rare case by construction.
func (t *Table) prefetchSlot(key uint64, pt Prefetcher) {
	slot := hash(key) & t.mask
	prefetch.Ptr(unsafe.Pointer(&t.keys[slot]))
	prefetch.Ptr(unsafe.Pointer(&t.counts[slot]))
	if pt != nil {
		pt.Prefetch(slot*8, 8)
		pt.Prefetch(1<<40+slot*4, 4)
	}
}

// flushWave prefetches every wave member's slot, then inserts them in
// collection order. A mid-wave grow makes the remaining prefetches
// stale (wrong mask) — harmless: prefetch is advisory, inserts recompute.
func (t *Table) flushWave(wave []uint64, pt Prefetcher) {
	for _, key := range wave {
		t.prefetchSlot(key, pt)
	}
	for _, key := range wave {
		t.Increment(key)
	}
}

// countWaves inserts keys in order, a wave of WaveWidth at a time: the
// counting path of a partition (Bins.Count). Tables and probe counts
// are CountSeq's on the same keys in the same order.
func (t *Table) countWaves(keys []uint64) {
	pt, _ := t.Tracer.(Prefetcher)
	for len(keys) > 0 {
		m := min(len(keys), WaveWidth)
		t.flushWave(keys[:m], pt)
		keys = keys[m:]
	}
}

// appendKmers appends the canonical k-mers of a 2-bit packed sequence
// to dst, in sequence order: the packed decoder the binning rolls
// k-mers with. Bases stream out of each packed word two bits at a time
// (one word load per 32 bases), and the reverse-complement code is
// maintained incrementally alongside the forward code: O(1)
// canonicalization per k-mer instead of CountSeq's O(k). It appends
// nothing when k is outside [1, 31], the range a packed code holds, or
// p is shorter than k.
func appendKmers(dst []uint64, p seq2.Packed, k int) []uint64 {
	if kmers(p.Len(), k) == 0 {
		return dst
	}
	words := p.WordsSlice()
	shift := 2 * uint(k-1)
	mask := uint64(1)<<(2*uint(k)) - 1
	var code, rcode, w uint64
	for i := range p.Len() {
		if i%seq2.BasesPerWord == 0 {
			w = words[i/seq2.BasesPerWord]
		}
		b := w & 3
		w >>= 2
		code = (code<<2 | b) & mask
		rcode = rcode>>2 | (3-b)<<shift
		if i+1 >= k {
			dst = append(dst, min(code, rcode))
		}
	}
	return dst
}

// kmers is the number of k-mers appendKmers rolls from n bases.
func kmers(n, k int) int {
	if k <= 0 || k > 31 || n < k {
		return 0
	}
	return n - k + 1
}
