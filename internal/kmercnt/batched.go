package kmercnt

import (
	"unsafe"

	"repro/internal/prefetch"
	"repro/internal/seq2"
	"repro/internal/tuning"
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
// before the first insert consumes one. Like fmindex.batch_width it is
// probed from the host's memory-level-parallelism capacity (and cached
// on disk); unlike it, hash probes carry no per-lane state, so wider
// waves stay cheap and the default sits higher. Width is pure dispatch
// policy — any value yields identical tables.
var WaveWidth = tuning.NewInt("kmercnt.wave_width", 64, 4, 512, func() int {
	return prefetch.BestWidth([]int{16, 32, 64, 128})
})

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

// waveScratch returns the table's grow-only wave buffer sized to the
// resolved width.
func (t *Table) waveScratch() []uint64 {
	w := WaveWidth.Get()
	if cap(t.wave) < w {
		t.wave = make([]uint64, 0, w)
	}
	return t.wave[:0]
}

// CountSeqPackedBatched counts the canonical k-mers of a 2-bit packed
// sequence on the wave-batched schedule. Bases stream out of each
// packed word two bits at a time (one word load per 32 bases), the
// reverse-complement code is maintained incrementally alongside the
// forward code (O(1) canonicalization per k-mer instead of O(k)), the
// decoder fills the wave and the flush overlaps the slot misses. This
// is the kernel's hot path (RunKernelCtx). Tables and probe counts are
// identical to CountSeq's on the unpacked sequence.
func CountSeqPackedBatched(t *Table, p seq2.Packed, k int) uint64 {
	n := p.Len()
	if n < k || k <= 0 || k > 31 {
		return 0
	}
	wave := t.waveScratch()
	pt, _ := t.Tracer.(Prefetcher)
	shift := 2 * uint(k-1)
	mask := uint64(1)<<(2*uint(k)) - 1
	words := p.WordsSlice()
	var code, rcode uint64
	var w uint64
	var count uint64
	for i := 0; i < n; i++ {
		if i%seq2.BasesPerWord == 0 {
			w = words[i/seq2.BasesPerWord]
		}
		b := w & 3
		w >>= 2
		code = (code<<2 | b) & mask
		rcode = rcode>>2 | (3-b)<<shift
		if i >= k-1 {
			canon := code
			if rcode < code {
				canon = rcode
			}
			wave = append(wave, canon)
			count++
			if len(wave) == cap(wave) {
				t.flushWave(wave, pt)
				wave = wave[:0]
			}
		}
	}
	t.flushWave(wave, pt)
	t.wave = wave[:0]
	return count
}
