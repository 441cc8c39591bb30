package kmercnt

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/genome"
	"repro/internal/seq2"
)

func TestBatchedMatchesUnbatched(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	reads := make([]genome.Seq, 15)
	for i := range reads {
		reads[i] = genome.Random(rng, 300)
	}
	k := 17
	plain := NewTable(64, Linear)
	batched := NewTable(64, Linear)
	var nPlain, nBatched uint64
	for _, r := range reads {
		nPlain += CountSeq(plain, r, k)
		nBatched += countPackedBatched(batched, r, k)
	}
	if nPlain != nBatched {
		t.Fatalf("k-mer counts differ: %d vs %d", nPlain, nBatched)
	}
	if plain.Len() != batched.Len() {
		t.Fatalf("distinct counts differ: %d vs %d", plain.Len(), batched.Len())
	}
	for _, kc := range plain.TopKmers(1 << 20) {
		if got := batched.Count(kc.Kmer); got != kc.Count {
			t.Fatalf("k-mer %x: %d vs %d", kc.Kmer, got, kc.Count)
		}
	}
}

func TestBatchedShortRead(t *testing.T) {
	tab := NewTable(64, Linear)
	// Fewer k-mers than a batch.
	n := countPackedBatched(tab, genome.MustFromString("ACGTACGTACGTACGTACGTA"), 17)
	if n != 5 {
		t.Errorf("counted %d k-mers, want 5", n)
	}
	if tab.Len() == 0 {
		t.Error("no k-mers stored")
	}
}

// A plain MemTracer (no Prefetcher) must observe the EXACT demand
// stream the serial counter issues — the wave schedule adds prefetches,
// never demand accesses.
func TestBatchedDemandStreamIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	read := genome.Random(rng, 2000)
	type acc struct {
		addr  uint64
		size  int
		write bool
	}
	record := func(count func(*Table, genome.Seq, int) uint64) []acc {
		tab := NewTable(1<<12, Linear)
		var got []acc
		tab.Tracer = tracerFunc(func(addr uint64, size int, write bool) {
			got = append(got, acc{addr, size, write})
		})
		count(tab, read, 17)
		return got
	}
	plain := record(CountSeq)
	batched := record(countPackedBatched)
	if !reflect.DeepEqual(plain, batched) {
		t.Fatalf("demand streams diverge: serial %d accesses, batched %d",
			len(plain), len(batched))
	}
}

// With the cache simulator attached, the wave's prefetch pass installs
// the slot lines at the discounted penalty and the inserts hit: the
// batched trace must score strictly less stall than the serial one on
// the same reads. This is the CI smoke gate's kmercnt assertion.
func TestBatchedPrefetchReducesSimulatedStalls(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	reads := make([]genome.Seq, 16)
	for i := range reads {
		reads[i] = genome.Random(rng, 4000)
	}
	run := func(count func(*Table, genome.Seq, int) uint64) (*cachesim.Hierarchy, *Table) {
		tab := NewTable(1<<20, Linear) // slot arrays far exceed the simulated L2
		sim := cachesim.NewHierarchy(cachesim.XeonE31240v5())
		tab.Tracer = sim
		for _, r := range reads {
			count(tab, r, 17)
		}
		return sim, tab
	}
	serialSim, serialTab := run(CountSeq)
	batchedSim, batchedTab := run(countPackedBatched)

	if serialTab.Probes != batchedTab.Probes {
		t.Fatalf("probe counts diverge: %d vs %d", serialTab.Probes, batchedTab.Probes)
	}
	if batchedSim.Prefetches == 0 {
		t.Fatal("batched run issued no prefetches")
	}
	instr := serialTab.Probes * 6
	rs := serialSim.Report(instr)
	rb := batchedSim.Report(instr)
	if rb.CyclesEstimate >= rs.CyclesEstimate {
		t.Fatalf("batched cycle estimate %.0f not below serial %.0f",
			rb.CyclesEstimate, rs.CyclesEstimate)
	}
	t.Logf("stall: serial %.0f -> batched %.0f cycles, L1 miss %.3f -> %.3f",
		rs.CyclesEstimate*rs.StallFraction, rb.CyclesEstimate*rb.StallFraction,
		rs.L1MissRatio, rb.L1MissRatio)
}

// CountSeqPackedBatched must produce tables identical to CountSeq's
// at every wave width, including widths larger than the read's k-mer
// count.
func TestPackedBatchedForcedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	reads := make([]genome.Seq, 10)
	for i := range reads {
		reads[i] = genome.Random(rng, 50+rng.Intn(500))
	}
	for _, k := range []int{5, 17, 31} {
		want := NewTable(64, Linear)
		var wantN uint64
		for _, r := range reads {
			wantN += CountSeq(want, r, k)
		}
		for _, width := range []int{4, 7, 64, 512} {
			restore := WaveWidth.Set(width)
			got := NewTable(64, Linear)
			var gotN uint64
			for _, r := range reads {
				gotN += CountSeqPackedBatched(got, seq2.Pack(r), k)
			}
			restore()
			if gotN != wantN {
				t.Fatalf("k=%d width=%d: counted %d, want %d", k, width, gotN, wantN)
			}
			if got.Len() != want.Len() {
				t.Fatalf("k=%d width=%d: distinct %d, want %d", k, width, got.Len(), want.Len())
			}
			for _, kc := range want.TopKmers(1 << 20) {
				if c := got.Count(kc.Kmer); c != kc.Count {
					t.Fatalf("k=%d width=%d kmer %x: %d, want %d", k, width, kc.Kmer, c, kc.Count)
				}
			}
		}
	}
}

// Steady-state wave counting must not allocate: the wave buffer lives
// on the table.
func TestPackedBatchedZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	read := genome.Random(rng, 3000)
	p := seq2.Pack(read)
	tab := NewTable(1<<16, Linear) // large enough that no grow happens
	CountSeqPackedBatched(tab, p, 17)
	if allocs := testing.AllocsPerRun(10, func() {
		CountSeqPackedBatched(tab, p, 17)
	}); allocs != 0 {
		t.Fatalf("steady-state allocs/run = %v, want 0", allocs)
	}
}

// The kernel path (RunKernelCtx -> CountSeqPackedBatched) must agree
// with the serial counter's aggregates.
func TestKernelBatchedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reads := make([]genome.Seq, 30)
	for i := range reads {
		reads[i] = genome.Random(rng, 100+rng.Intn(400))
	}
	want := NewTable(64, Linear)
	var wantN uint64
	for _, r := range reads {
		wantN += CountSeq(want, r, 17)
	}
	res := must(RunKernelCtx(context.Background(), reads, 17, 4, Linear))
	if res.Kmers != wantN {
		t.Fatalf("kernel counted %d k-mers, want %d", res.Kmers, wantN)
	}
	if res.Distinct != want.Len() {
		t.Fatalf("kernel distinct %d, want %d", res.Distinct, want.Len())
	}
}
