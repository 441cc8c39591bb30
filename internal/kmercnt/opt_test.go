package kmercnt

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
	"repro/internal/seq2"
)

// tablesEqual reports whether two tables hold the same key->count
// mapping (slot layout may differ only if insertion order differed, so
// equality here also certifies identical insertion sequences).
func tablesEqual(a, b *Table) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i, key := range a.keys {
		if key == 0 {
			continue
		}
		if b.Count(key-1) != a.counts[i] {
			return false
		}
	}
	return true
}

// countPackedBatched packs s and counts it on the production path; it
// has CountSeq's shape so a test can run either side of the
// differential through one closure.
func countPackedBatched(t *Table, s genome.Seq, k int) uint64 {
	return CountSeqPackedBatched(t, seq2.Pack(s), k)
}

// The production path (packed decode, rolling reverse complement, wave
// schedule) must produce tables identical to the scalar reference,
// including probe counts (same keys in the same order means the same
// probe sequence).
func TestCountSeqVariantsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, mode := range []Probing{Linear, RobinHood} {
		for _, k := range []int{5, 17, 31} {
			ref := NewTable(1<<10, mode)
			prod := NewTable(1<<10, mode)
			var refN, prodN uint64
			var buf []uint64
			for trial := 0; trial < 30; trial++ {
				s := genome.Random(rng, k-2+rng.Intn(400))
				refN += CountSeq(ref, s, k)
				p := seq2.PackInto(buf, s)
				buf = p.WordsSlice()
				prodN += CountSeqPackedBatched(prod, p, k)
			}
			if prodN != refN {
				t.Fatalf("mode=%v k=%d: kmer count %d, want %d", mode, k, prodN, refN)
			}
			if !tablesEqual(ref, prod) {
				t.Fatalf("mode=%v k=%d: packed-batched table differs from reference", mode, k)
			}
			if prod.Probes != ref.Probes {
				t.Fatalf("mode=%v k=%d: probes %d, want %d", mode, k, prod.Probes, ref.Probes)
			}
		}
	}
}

// The fast path returns early on inputs shorter than k (and on k
// outside the packed code's range); the reference must agree that
// there is nothing to count.
func TestCountSeqFastShortInputs(t *testing.T) {
	tb := NewTable(16, Linear)
	short := genome.MustFromString("ACG")
	if n := CountSeq(tb, short, 5); n != 0 {
		t.Fatalf("short seq: n=%d", n)
	}
	if n := countPackedBatched(tb, short, 5); n != 0 {
		t.Fatalf("short packed seq: n=%d", n)
	}
	if n := countPackedBatched(tb, short, 0); n != 0 {
		t.Fatalf("k=0: n=%d", n)
	}
	if tb.Len() != 0 {
		t.Fatalf("short inputs stored %d k-mers", tb.Len())
	}
}

// Scalar reference versus the production path (packed, rolling,
// wave-batched).
func BenchmarkCountSeq(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	const k = 17
	reads := make([]genome.Seq, 32)
	for i := range reads {
		reads[i] = genome.Random(rng, 1000)
	}
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		tb := NewTable(1<<16, Linear)
		for i := 0; i < b.N; i++ {
			CountSeq(tb, reads[i%len(reads)], k)
		}
	})
	b.Run("packed-batched", func(b *testing.B) {
		b.ReportAllocs()
		tb := NewTable(1<<16, Linear)
		var buf []uint64
		for i := 0; i < b.N; i++ {
			p := seq2.PackInto(buf, reads[i%len(reads)])
			buf = p.WordsSlice()
			CountSeqPackedBatched(tb, p, k)
		}
	})
}
