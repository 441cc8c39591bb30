package kmercnt

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/genome"
)

// binned is a whole partitioned count: each partition's answer, slot
// layout and probe count, and the k-mers counted.
type binned struct {
	parts   [][]KmerCount
	layouts [][]uint64
	probes  []uint64
	kmers   int
}

// all is every partition's answer in one key-ordered list.
func (r binned) all() []KmerCount {
	out := slices.Concat(r.parts...)
	slices.SortFunc(out, func(a, b KmerCount) int { return cmp.Compare(a.Kmer, b.Kmer) })
	return out
}

// countBins runs both phases of b, one task at a time, on workers
// worker states, as a task loop would: task i on worker 7i mod
// workers. One worker takes the tasks in order; several take them
// last first, so each worker's state carries over between tasks that
// a one-worker run never puts next to each other.
func countBins(b *Bins, workers int) binned {
	ws := make([]*Counter, workers)
	for i := range ws {
		ws[i] = NewCounter()
	}
	order := func(i, n int) int {
		if workers == 1 {
			return i
		}
		return n - 1 - i
	}
	for i := range b.Chunks() {
		c := order(i, b.Chunks())
		b.Fill(ws[c*7%workers], c)
	}
	n := b.Parts()
	res := binned{parts: make([][]KmerCount, n), layouts: make([][]uint64, n), probes: make([]uint64, n)}
	for i := range n {
		p := order(i, n)
		t, kmers := b.Count(ws[p*7%workers], p)
		res.parts[p], res.layouts[p], res.probes[p] = t.Sorted(), slices.Clone(t.keys), t.Probes
		res.kmers += kmers
	}
	return res
}

// readsOf decodes fuzz bytes into reads: a byte with bit 2 set ends
// the read, any other is the base in its low two bits, so runs of
// enders make empty reads.
func readsOf(data []byte) []genome.Seq {
	reads := []genome.Seq{{}}
	for _, c := range data {
		if c&4 != 0 {
			reads = append(reads, genome.Seq{})
			continue
		}
		reads[len(reads)-1] = append(reads[len(reads)-1], genome.Base(c&3))
	}
	return reads
}

// FuzzPartitionCount holds the partitioned count to the scalar
// reference: the (k-mer, count) pairs of all partitions together, the
// distinct count and the k-mer total equal CountSeq's table over the
// same reads, for k in [1, 31] and any partition count, one included;
// and three workers give every partition the table and probe count one
// worker gives it, slot for slot. Seeds (testdata/fuzz): no reads,
// empty reads, reads shorter than k, k = 1 and k = 31, one partition
// and more partitions than reads.
func FuzzPartitionCount(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, kb, pb uint8) {
		reads := readsOf(data)
		k, parts := 1+int(kb)%31, 1+int(pb)%64
		want := NewTable(16)
		var wantN uint64
		for _, r := range reads {
			wantN += CountSeq(want, r, k)
		}
		b := newBins(reads, k, parts)
		one := countBins(b, 1)
		if uint64(one.kmers) != wantN {
			t.Fatalf("k=%d parts=%d: %d k-mers, want %d", k, parts, one.kmers, wantN)
		}
		if got := one.all(); !slices.Equal(got, want.Sorted()) {
			t.Fatalf("k=%d parts=%d: %d distinct (k-mer, count) pairs differ from CountSeq's %d", k, parts, len(got), want.Len())
		}
		three := countBins(newBins(reads, k, parts), 3)
		for p := range parts {
			if !slices.Equal(three.layouts[p], one.layouts[p]) || three.probes[p] != one.probes[p] {
				t.Fatalf("k=%d parts=%d: partition %d on three workers (%d pairs, %d probes), on one (%d pairs, %d probes)",
					k, parts, p, len(three.parts[p]), three.probes[p], len(one.parts[p]), one.probes[p])
			}
		}
	})
}
