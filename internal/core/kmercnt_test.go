package core

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"testing"

	"repro/internal/genome"
	"repro/internal/kmercnt"
)

// TestKmerCntMatchesCountSeq: kmer-cnt's partitions together hold
// exactly the (k-mer, count) pairs of CountSeq's one table over the
// same reads, and the run's distinct and kmers are that table's, at
// Small, seeds 42, 7 and 1, on 1, 2 and 4 threads.
func TestKmerCntMatchesCountSeq(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{42, 7, 1} {
		b, _ := ByName("kmer-cnt")
		b.Prepare(Small, seed)
		reads := b.(*bench[[]genome.Seq]).data
		ref := kmercnt.NewTable(16)
		var kmers uint64
		for _, r := range reads {
			kmers += kmercnt.CountSeq(ref, r, 17)
		}
		want := ref.Sorted()
		for _, threads := range []int{1, 2, 4} {
			loop := kmerLoop.with(kmercnt.NewBins(reads, 17)).(*perTask[*kmercnt.Bins, *kmercnt.Counter, counted[*kmercnt.Table]])
			parts := make([][]kmercnt.KmerCount, loop.n(loop.data))
			if err := loop.each(ctx, threads, func(i int, r counted[*kmercnt.Table]) { parts[i] = r.answer.Sorted() }); err != nil {
				t.Fatal(err)
			}
			got := slices.Concat(parts...)
			slices.SortFunc(got, func(a, b kmercnt.KmerCount) int { return cmp.Compare(a.Kmer, b.Kmer) })
			if !slices.Equal(got, want) {
				t.Errorf("seed %d, %d threads: %d (k-mer, count) pairs, CountSeq's table %d, and they differ", seed, threads, len(got), len(want))
			}
			st := mustRun(b, threads)
			if st.Extra["distinct"] != float64(len(want)) || st.Extra["kmers"] != float64(kmers) {
				t.Errorf("seed %d, %d threads: distinct %v kmers %v, CountSeq's %d and %d", seed, threads, st.Extra["distinct"], st.Extra["kmers"], len(want), kmers)
			}
		}
		b.Release()
	}
}

// TestKmerCntAllocBound: a kmer-cnt run allocates its bins, 8 bytes a
// k-mer, and little besides: one Small run, at 1 and at 2 threads,
// stays within 1.25 times the bins plus 1 MiB. Bins that grew by
// appending, or a table per partition, would not.
func TestKmerCntAllocBound(t *testing.T) {
	b, _ := ByName("kmer-cnt")
	b.Prepare(Small, 42)
	kmers := mustRun(b, 1).Extra["kmers"]
	limit := uint64(8*kmers*1.25) + 1<<20
	for _, threads := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRun(b, threads)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if got > limit {
			t.Errorf("%d threads: a run allocated %d bytes, bound %d (%.0f k-mers)", threads, got, limit, kmers)
		}
		t.Logf("%d threads: %d bytes, bound %d", threads, got, limit)
	}
}
