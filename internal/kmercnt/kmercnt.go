// Package kmercnt implements the k-mer counting kernel from Flye's
// assembly pipeline: every k-mer of every read is inserted into a large
// open-addressing hash table of counters. The access pattern — one
// random cache line touched per insert with a 1-2 byte useful payload —
// is what makes kmer-cnt the most memory-bound kernel in the paper
// (484 BPKI, 69% stall cycles). The table resolves collisions by
// linear probing. The kernel counts by ownership (partition.go): k-mers
// binned by hash prefix, each partition counted in a cache-resident
// table of its own.
package kmercnt

import (
	"cmp"
	"slices"

	"repro/internal/genome"
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

	// Probes counts slot inspections.
	Probes uint64
	Tracer MemTracer
}

// NewTable creates a table with at least capacity slots (rounded up to
// a power of two).
func NewTable(capacity int) *Table {
	size := 16
	for size < capacity {
		size *= 2
	}
	return &Table{
		keys:   make([]uint64, size),
		counts: make([]uint32, size),
		mask:   uint64(size - 1),
	}
}

// Len reports the number of distinct k-mers stored.
func (t *Table) Len() int { return t.used }

// reset empties the table and sizes it for n inserts: the smallest
// power of two, at least 16 slots, that n distinct keys fill below the
// 70% grow threshold, so the table never grows. The size depends on n
// alone, and the slot arrays are reused when they are large enough.
func (t *Table) reset(n int) {
	size := 16
	for size*7 <= n*10 {
		size *= 2
	}
	if cap(t.keys) < size {
		t.keys, t.counts = make([]uint64, size), make([]uint32, size)
	} else {
		t.keys, t.counts = t.keys[:size], t.counts[:size]
		clear(t.keys)
		clear(t.counts)
	}
	t.mask = uint64(size - 1)
	t.used = 0
	t.Probes = 0
}

// KmerCount is one stored k-mer and its count.
type KmerCount struct {
	Kmer  uint64
	Count uint32
}

// Sorted returns every stored k-mer with its count, in key order: the
// table's answer, free of its slot layout. It allocates and sorts, so
// it serves answer digests and tests, never the counting path.
func (t *Table) Sorted() []KmerCount {
	out := make([]KmerCount, 0, t.used)
	for i, key := range t.keys {
		if key != 0 {
			out = append(out, KmerCount{key - 1, t.counts[i]})
		}
	}
	slices.SortFunc(out, func(a, b KmerCount) int { return cmp.Compare(a.Kmer, b.Kmer) })
	return out
}

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
}

// grow doubles the table and reinserts all entries.
func (t *Table) grow() {
	oldKeys, oldCounts := t.keys, t.counts
	t.keys = make([]uint64, 2*len(oldKeys))
	t.counts = make([]uint32, 2*len(oldCounts))
	t.mask = uint64(len(t.keys) - 1)
	t.used = 0
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		t.reinsert(k, oldCounts[i])
	}
}

// reinsert places an existing key/count pair into the grown table.
// It neither counts probes nor traces: growth is not the kernel's work.
func (t *Table) reinsert(stored uint64, count uint32) {
	slot := hash(stored-1) & t.mask
	for t.keys[slot] != 0 {
		slot = (slot + 1) & t.mask
	}
	t.keys[slot] = stored
	t.counts[slot] = count
	t.used++
}

// CountSeq inserts every canonical k-mer of s into the table and
// returns the number of k-mers processed. The canonical key is the
// smaller of a k-mer code and its reverse complement, built here one
// base at a time. It is the scalar reference implementation the
// partitioned count (Bins) is held to.
func CountSeq(t *Table, s genome.Seq, k int) uint64 {
	var n uint64
	genome.EachKmer(s, k, func(_ int, code uint64) {
		rc, x := uint64(0), code
		for i := 0; i < k; i++ {
			rc = rc<<2 | (3 - (x & 3))
			x >>= 2
		}
		t.Increment(min(code, rc))
		n++
	})
	return n
}
