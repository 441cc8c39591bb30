package kmercnt

import (
	"math/bits"

	"repro/internal/genome"
	"repro/internal/seq2"
)

// Counting by ownership, KMC's design: a first phase bins every read's
// canonical k-mers by hash prefix into partitions, and a second counts
// each partition alone, in a table sized for that partition only. A
// key lives in exactly one partition, so the partitions' tables are
// disjoint: there is nothing to merge and nothing shared between the
// tasks that count them. Both phases split into tasks whose answers
// depend on the task alone — Fill bins one chunk of reads, Count one
// partition — and a caller runs them on any schedule: every task of
// the first phase before any of the second.
//
// A partition's k-mers are inserted chunk by chunk, in read order, so
// its table layout and probe count are the serial counter's on those
// keys whatever ran before on the worker, and a whole count's
// statistics are the same at any thread count.

// partKmers is the k-mers a partition holds on average: a table of
// 16,384 slots (192 KiB) counts it below the grow threshold, so a
// partition's table stays cache-resident at any dataset size.
const partKmers = 1 << 13

// binReads is a binning chunk's read count: enough k-mers per chunk
// that every partition's share of it is a run, few enough reads that
// Small's chunks still spread over the workers.
const binReads = 8

// Bins is a partitioned count's first phase over a set of reads: for
// chunk c and partition p, keys[off[c*(parts+1)+p]:off[c*(parts+1)+p+1]]
// holds chunk c's k-mers of partition p, in read order.
type Bins struct {
	reads []genome.Seq
	k     int
	parts int
	start []int // chunk c's k-mers are keys[start[c]:start[c+1]]
	off   []int
	keys  []uint64
	// widest is the most k-mers a chunk has: a worker's scratch is
	// sized to it once, not grown chunk by chunk.
	widest int
}

// NewBins sizes the partitioned count of reads' canonical k-mers. The
// partition count depends on the reads' k-mer total alone, never on
// how many workers count them.
func NewBins(reads []genome.Seq, k int) *Bins {
	return newBins(reads, k, max(1, (totalKmers(reads, k)+partKmers-1)/partKmers))
}

func totalKmers(reads []genome.Seq, k int) int {
	n := 0
	for _, r := range reads {
		n += kmers(len(r), k)
	}
	return n
}

// newBins is NewBins with parts partitions.
func newBins(reads []genome.Seq, k, parts int) *Bins {
	b := &Bins{reads: reads, k: k, parts: parts}
	chunks := (len(reads) + binReads - 1) / binReads
	b.start = make([]int, chunks+1)
	for c := range chunks {
		n := totalKmers(b.chunk(c), k)
		b.start[c+1] = b.start[c] + n
		b.widest = max(b.widest, n)
	}
	b.off = make([]int, chunks*(parts+1))
	b.keys = make([]uint64, b.start[chunks])
	return b
}

// Chunks is the number of first-phase tasks.
func (b *Bins) Chunks() int { return len(b.start) - 1 }

// Parts is the number of second-phase tasks: the partition count.
func (b *Bins) Parts() int { return b.parts }

// ReadKmers returns each read's k-mer count, in read order: a read's
// work.
func (b *Bins) ReadKmers() []uint64 {
	out := make([]uint64, len(b.reads))
	for i, r := range b.reads {
		out[i] = uint64(kmers(len(r), b.k))
	}
	return out
}

func (b *Bins) chunk(c int) []genome.Seq {
	return b.reads[c*binReads : min((c+1)*binReads, len(b.reads))]
}

// part is key's partition: the high word of hash(key)·parts, a prefix
// of the hash, where a table's slot is its low bits.
func (b *Bins) part(key uint64) int {
	hi, _ := bits.Mul64(hash(key), uint64(b.parts))
	return int(hi)
}

// Counter is one worker's state for a partitioned count, reused across
// its tasks: the packing buffer and chunk scratch Fill bins through,
// and the table Count clears and refills per partition.
type Counter struct {
	table  *Table
	packed []uint64
	keys   []uint64
	next   []int
}

// NewCounter returns a worker's empty state.
func NewCounter() *Counter { return &Counter{table: NewTable(0)} }

// pack packs r into w's grow-only buffer.
func (w *Counter) pack(r genome.Seq) seq2.Packed {
	p := seq2.PackInto(w.packed, r)
	w.packed = p.WordsSlice()
	return p
}

// Fill is the first phase's task: it rolls chunk c's k-mers on w and
// bins them into chunk c's stretch of keys, stable by partition.
func (b *Bins) Fill(w *Counter, c int) {
	if cap(w.keys) < b.widest {
		w.keys = make([]uint64, 0, b.widest)
	}
	keys := w.keys[:0]
	for _, r := range b.chunk(c) {
		keys = appendKmers(keys, w.pack(r), b.k)
	}
	w.keys = keys
	// A counting sort: row[p+1] counts partition p, then the prefix sum
	// makes row[p] partition p's first slot.
	row := b.off[c*(b.parts+1) : (c+1)*(b.parts+1)]
	clear(row)
	for _, key := range keys {
		row[b.part(key)+1]++
	}
	row[0] = b.start[c]
	for p := 1; p <= b.parts; p++ {
		row[p] += row[p-1]
	}
	next := append(w.next[:0], row[:b.parts]...)
	for _, key := range keys {
		p := b.part(key)
		b.keys[next[p]] = key
		next[p]++
	}
	w.next = next
}

// Count is the second phase's task: it counts partition p into w's
// table, cleared and sized for p's k-mers alone, through the wave
// path, and returns the table and p's k-mer count. The table is w's:
// it holds p's answer until w's next Count.
func (b *Bins) Count(w *Counter, p int) (*Table, int) {
	t := w.table
	stride := b.parts + 1
	n := 0
	for o := p; o < len(b.off); o += stride {
		n += b.off[o+1] - b.off[o]
	}
	t.reset(n)
	for o := p; o < len(b.off); o += stride {
		t.countWaves(b.keys[b.off[o]:b.off[o+1]])
	}
	return t, n
}
