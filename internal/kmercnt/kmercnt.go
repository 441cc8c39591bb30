// Package kmercnt implements the k-mer counting kernel from Flye's
// assembly pipeline: every k-mer of every read is inserted into a large
// open-addressing hash table of counters. The access pattern — one
// random cache line touched per insert with a 1-2 byte useful payload —
// is what makes kmer-cnt the most memory-bound kernel in the paper
// (484 BPKI, 69% stall cycles). Both plain linear probing and robin-
// hood probing (the paper's suggested optimization) are provided.
package kmercnt

import (
	"context"
	"sort"

	"repro/internal/faultinject"
	"repro/internal/genome"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/seq2"
)

// Probing selects the collision-resolution strategy.
type Probing int

// Probing strategies.
const (
	Linear Probing = iota
	RobinHood
)

// MemTracer mirrors cachesim's access interface.
type MemTracer interface {
	Access(addr uint64, size int, write bool)
}

// Table is an open-addressing k-mer counter. Keys are packed canonical
// k-mer codes stored +1 so the zero word means empty.
type Table struct {
	keys   []uint64
	counts []uint32
	mask   uint64
	used   int
	mode   Probing

	// Probes counts slot inspections; ProbeDistance accumulates the
	// displacement of performed inserts (robin-hood quality metric).
	Probes        uint64
	ProbeDistance uint64
	Tracer        MemTracer

	// wave is the batched counters' grow-only k-mer buffer (batched.go);
	// it lives on the table so steady-state waves allocate nothing.
	wave []uint64
}

// NewTable creates a table with at least capacity slots (rounded up to
// a power of two).
func NewTable(capacity int, mode Probing) *Table {
	size := 16
	for size < capacity {
		size *= 2
	}
	return &Table{
		keys:   make([]uint64, size),
		counts: make([]uint32, size),
		mask:   uint64(size - 1),
		mode:   mode,
	}
}

// Len reports the number of distinct k-mers stored.
func (t *Table) Len() int { return t.used }

// Cap reports the slot count.
func (t *Table) Cap() int { return len(t.keys) }

// hash mixes a k-mer code (murmur-style finalizer).
func hash(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (t *Table) trace(slot uint64, write bool) {
	if t.Tracer != nil {
		// keys and counts are separate arrays; an insert touches both.
		t.Tracer.Access(slot*8, 8, write)
		t.Tracer.Access(1<<40+slot*4, 4, write)
	}
}

// Increment adds one to the count of key, growing the table when load
// exceeds 70%.
func (t *Table) Increment(key uint64) {
	if t.used*10 >= len(t.keys)*7 {
		t.grow()
	}
	stored := key + 1
	switch t.mode {
	case Linear:
		slot := hash(key) & t.mask
		for {
			t.Probes++
			t.trace(slot, false)
			if t.keys[slot] == stored {
				t.counts[slot]++
				t.trace(slot, true)
				return
			}
			if t.keys[slot] == 0 {
				t.keys[slot] = stored
				t.counts[slot] = 1
				t.used++
				t.trace(slot, true)
				return
			}
			slot = (slot + 1) & t.mask
		}
	case RobinHood:
		slot := hash(key) & t.mask
		dist := uint64(0)
		curKey := stored
		curCount := uint32(1)
		isNew := true
		for {
			t.Probes++
			t.trace(slot, false)
			if t.keys[slot] == 0 {
				t.keys[slot] = curKey
				t.counts[slot] = curCount
				t.trace(slot, true)
				if isNew {
					t.used++
				}
				t.ProbeDistance += dist
				return
			}
			if isNew && t.keys[slot] == curKey {
				t.counts[slot]++
				t.trace(slot, true)
				t.ProbeDistance += dist
				return
			}
			// Robin hood: displace richer residents.
			residentDist := (slot - hash(t.keys[slot]-1)) & t.mask
			if residentDist < dist {
				t.keys[slot], curKey = curKey, t.keys[slot]
				t.counts[slot], curCount = curCount, t.counts[slot]
				t.trace(slot, true)
				if isNew {
					t.used++
					t.ProbeDistance += dist
				}
				isNew = false // the displaced entry is always pre-existing
				dist = residentDist
			}
			slot = (slot + 1) & t.mask
			dist++
		}
	}
}

// Count returns the stored count for key (0 when absent).
func (t *Table) Count(key uint64) uint32 {
	stored := key + 1
	slot := hash(key) & t.mask
	for probes := 0; probes <= len(t.keys); probes++ {
		if t.keys[slot] == stored {
			return t.counts[slot]
		}
		if t.keys[slot] == 0 {
			return 0
		}
		slot = (slot + 1) & t.mask
	}
	return 0
}

// scanStride returns an odd stride for visiting all slots of a
// power-of-two table in an order decorrelated from slot order. Walking
// a source table in plain slot order yields keys in ascending hash
// order, and feeding another linear-probe table keys in ascending slot
// order is its worst case: every insert lands at the frontier of one
// ever-growing run (measured 4x slower than decorrelated order on a
// 142k-key merge). An odd stride on a power-of-two size is a full
// cycle, so every slot is still visited exactly once. grow()
// deliberately does NOT use it: a doubling rehash splits each source
// run across two well-spaced destinations anyway, and the sequential
// source scan's locality wins there (measured ~20% on the t1 kernel).
func scanStride(size int) int {
	return (0x9E3779B1 & (size - 1)) | 1
}

// grow doubles the table and reinserts all entries.
func (t *Table) grow() {
	oldKeys, oldCounts := t.keys, t.counts
	t.keys = make([]uint64, 2*len(oldKeys))
	t.counts = make([]uint32, 2*len(oldCounts))
	t.mask = uint64(len(t.keys) - 1)
	t.used = 0
	savedProbes, savedDist := t.Probes, t.ProbeDistance
	tracer := t.Tracer
	t.Tracer = nil
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		t.reinsert(k, oldCounts[i])
	}
	t.Probes, t.ProbeDistance = savedProbes, savedDist
	t.Tracer = tracer
}

// reinsert places an existing key/count pair into the grown table.
func (t *Table) reinsert(stored uint64, count uint32) {
	switch t.mode {
	case Linear:
		slot := hash(stored-1) & t.mask
		for t.keys[slot] != 0 {
			slot = (slot + 1) & t.mask
		}
		t.keys[slot] = stored
		t.counts[slot] = count
		t.used++
	case RobinHood:
		slot := hash(stored-1) & t.mask
		dist := uint64(0)
		curKey, curCount := stored, count
		for {
			if t.keys[slot] == 0 {
				t.keys[slot] = curKey
				t.counts[slot] = curCount
				t.used++
				return
			}
			residentDist := (slot - hash(t.keys[slot]-1)) & t.mask
			if residentDist < dist {
				t.keys[slot], curKey = curKey, t.keys[slot]
				t.counts[slot], curCount = curCount, t.counts[slot]
				dist = residentDist
			}
			slot = (slot + 1) & t.mask
			dist++
		}
	}
}

// Canonical returns the lexicographically smaller of a k-mer code and
// its reverse complement, the standard counting key.
func Canonical(code uint64, k int) uint64 {
	rc := uint64(0)
	x := code
	for i := 0; i < k; i++ {
		rc = rc<<2 | (3 - (x & 3))
		x >>= 2
	}
	if rc < code {
		return rc
	}
	return code
}

// CountSeq inserts every canonical k-mer of s into the table and
// returns the number of k-mers processed. It is the scalar reference
// implementation; CountSeqPackedBatched produces identical tables.
func CountSeq(t *Table, s genome.Seq, k int) uint64 {
	var n uint64
	genome.EachKmer(s, k, func(_ int, code uint64) {
		t.Increment(Canonical(code, k))
		n++
	})
	return n
}

// TopKmers returns the n most frequent k-mers (count-descending,
// key-ascending for ties).
func (t *Table) TopKmers(n int) []KmerCount {
	var all []KmerCount
	for i, key := range t.keys {
		if key != 0 {
			all = append(all, KmerCount{Kmer: key - 1, Count: t.counts[i]})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Kmer < all[j].Kmer
	})
	if n < len(all) {
		all = all[:n]
	}
	return all
}

// KmerCount pairs a k-mer code with its abundance.
type KmerCount struct {
	Kmer  uint64
	Count uint32
}

// KernelResult aggregates a kmer-cnt benchmark execution.
type KernelResult struct {
	Kmers     uint64
	Distinct  int
	Probes    uint64
	TaskStats *perf.TaskStats
	Counters  perf.Counters
}

// RunKernelCtx counts k-mers across reads. Threads each fill a private
// table (the shared-table version does not scale, as the paper's
// Figure 7 shows for kmer-cnt); results merge at the end. It runs under
// cooperative cancellation with a fault trip-point per read.
func RunKernelCtx(ctx context.Context, reads []genome.Seq, k, threads int, mode Probing) (KernelResult, error) {
	if threads <= 0 {
		threads = 1
	}
	type ws struct {
		table   *Table
		packBuf []uint64 // grow-only 2-bit packing buffer, reused per read
	}
	workers := make([]ws, threads)
	for i := range workers {
		workers[i].table = NewTable(1<<12, mode)
	}
	counts := make([]uint64, len(reads))
	// Reads are fine-grained tasks; chunked dispatch amortizes the
	// scheduler's atomic fetch across a batch of them.
	err := parallel.ForEachChunkedCtxErr(ctx, len(reads), threads, func(tctx context.Context, w, i int) error {
		if err := faultinject.Point(tctx); err != nil {
			return err
		}
		p := seq2.PackInto(workers[w].packBuf, reads[i])
		workers[w].packBuf = p.WordsSlice()
		counts[i] = CountSeqPackedBatched(workers[w].table, p, k)
		return nil
	})
	if err != nil {
		return KernelResult{}, err
	}
	res := KernelResult{TaskStats: perf.NewTaskStats("kmers")}
	merged := workers[0].table
	for i := 1; i < threads; i++ {
		// Stride order, not slot order: slot order feeds merged keys in
		// ascending hash order, linear probing's worst case (scanStride).
		src := workers[i].table
		mask := len(src.keys) - 1
		stride := scanStride(len(src.keys))
		for j := range src.keys {
			s := (j * stride) & mask
			if key := src.keys[s]; key != 0 {
				for c := uint32(0); c < src.counts[s]; c++ {
					merged.Increment(key - 1)
				}
			}
		}
	}
	res.Distinct = merged.Len()
	for i := range workers {
		res.Probes += workers[i].table.Probes
	}
	for _, n := range counts {
		res.Kmers += n
		res.TaskStats.Observe(float64(n))
	}
	// Memory-dominated: each insert is a random load + tiny store.
	res.Counters.Add(perf.Load, res.Probes*2)
	res.Counters.Add(perf.Store, res.Kmers)
	res.Counters.Add(perf.IntALU, res.Kmers*3)
	res.Counters.Add(perf.Branch, res.Probes)
	return res, nil
}
