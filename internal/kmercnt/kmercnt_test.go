package kmercnt

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/genome"
)

// count returns the stored count for key (0 when absent), probing
// the way Increment inserts.
func (t *Table) count(key uint64) uint32 {
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

// naiveCounts keys each k-mer by the smaller of its code and the code
// of the same k-mer read off the reverse-complement strand.
func naiveCounts(reads []genome.Seq, k int) map[uint64]uint32 {
	m := map[uint64]uint32{}
	for _, r := range reads {
		rc := r.ReverseComplement()
		genome.EachKmer(r, k, func(pos int, code uint64) {
			m[min(code, genome.KmerCode(rc, len(r)-pos-k, k))]++
		})
	}
	return m
}

func testReads(seed int64, n, length int) []genome.Seq {
	rng := rand.New(rand.NewSource(seed))
	reads := make([]genome.Seq, n)
	for i := range reads {
		reads[i] = genome.Random(rng, length)
	}
	return reads
}

func TestCountsMatchNaive(t *testing.T) {
	reads := testReads(1, 20, 200)
	k := 15
	want := naiveCounts(reads, k)
	tab := NewTable(64) // force growth
	var total uint64
	for _, r := range reads {
		total += CountSeq(tab, r, k)
	}
	if tab.Len() != len(want) {
		t.Fatalf("%d distinct, want %d", tab.Len(), len(want))
	}
	for key, count := range want {
		if got := tab.count(key); got != count {
			t.Fatalf("Count(%x) = %d, want %d", key, got, count)
		}
	}
	if total != uint64(20*(200-k+1)) {
		t.Errorf("processed %d k-mers", total)
	}
}

func TestForwardAndRCReadsCountTogether(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	read := genome.Random(rng, 100)
	k := 15
	tab := NewTable(1024)
	CountSeq(tab, read, k)
	CountSeq(tab, read.ReverseComplement(), k)
	// Every canonical k-mer should now have an even count (doubled).
	for i, key := range tab.keys {
		if key != 0 && tab.counts[i]%2 != 0 {
			t.Fatalf("k-mer %x count %d not doubled by RC read", key-1, tab.counts[i])
		}
	}
}

func TestGrowthPreservesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := NewTable(16)
	ref := map[uint64]uint32{}
	for i := 0; i < 5000; i++ {
		key := rng.Uint64() & (1<<30 - 1)
		tab.Increment(key)
		ref[key]++
	}
	if tab.Len() != len(ref) {
		t.Fatalf("distinct %d, want %d", tab.Len(), len(ref))
	}
	for key, want := range ref {
		if got := tab.count(key); got != want {
			t.Fatalf("Count(%x) = %d, want %d", key, got, want)
		}
	}
	if len(tab.keys) < 5000 {
		t.Errorf("table did not grow: cap %d", len(tab.keys))
	}
}

// The partitioned count (Bins) agrees with the naive map on every
// aggregate, through one partition and several, on one worker and four.
func TestRunKernelMatchesNaiveDistinct(t *testing.T) {
	reads := testReads(5, 30, 150)
	k := 17
	want := naiveCounts(reads, k)
	for _, b := range []*Bins{NewBins(reads, k), newBins(reads, k, 5)} {
		for _, workers := range []int{1, 4} {
			res := countBins(b, workers)
			distinct := 0
			for _, part := range res.parts {
				distinct += len(part)
				for _, c := range part {
					if want[c.Kmer] != c.Count {
						t.Fatalf("parts=%d workers=%d: k-mer %x counted %d, want %d", b.Parts(), workers, c.Kmer, c.Count, want[c.Kmer])
					}
				}
			}
			if distinct != len(want) {
				t.Errorf("parts=%d workers=%d: distinct %d, want %d", b.Parts(), workers, distinct, len(want))
			}
			if res.kmers != 30*(150-k+1) {
				t.Errorf("parts=%d workers=%d: kmers %d", b.Parts(), workers, res.kmers)
			}
		}
		perRead := b.ReadKmers()
		if len(perRead) != 30 || slices.ContainsFunc(perRead, func(n uint64) bool { return n != uint64(150-k+1) }) {
			t.Errorf("parts=%d: per-read k-mers %v", b.Parts(), perRead)
		}
	}
}

func TestTracerReceivesAccesses(t *testing.T) {
	tab := NewTable(64)
	var accesses int
	tab.Tracer = tracerFunc(func(addr uint64, size int, write bool) { accesses++ })
	tab.Increment(42)
	if accesses == 0 {
		t.Error("tracer saw no accesses")
	}
}

type tracerFunc func(addr uint64, size int, write bool)

func (f tracerFunc) Access(addr uint64, size int, write bool) { f(addr, size, write) }
