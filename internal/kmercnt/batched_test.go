package kmercnt

import (
	"math/rand"
	"reflect"
	"slices"
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
	plain := NewTable(64)
	batched := NewTable(64)
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
	for i, key := range plain.keys {
		if key == 0 {
			continue
		}
		if got := batched.count(key - 1); got != plain.counts[i] {
			t.Fatalf("k-mer %x: %d vs %d", key-1, got, plain.counts[i])
		}
	}
}

func TestBatchedShortRead(t *testing.T) {
	tab := NewTable(64)
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
		tab := NewTable(1 << 12)
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
		tab := NewTable(1 << 20) // slot arrays far exceed the simulated L2
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

// Wave inserts must produce tables identical to CountSeq's at every
// wave width, including widths larger than the read's k-mer count:
// width is dispatch policy, never part of the answer.
func TestPackedBatchedForcedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	reads := make([]genome.Seq, 10)
	for i := range reads {
		reads[i] = genome.Random(rng, 50+rng.Intn(500))
	}
	for _, k := range []int{5, 17, 31} {
		want := NewTable(64)
		var wantN uint64
		for _, r := range reads {
			wantN += CountSeq(want, r, k)
		}
		for _, width := range []int{4, 7, 64, 512} {
			got := NewTable(64)
			var gotN uint64
			for _, r := range reads {
				keys := appendKmers(nil, seq2.PackInto(nil, r), k)
				gotN += uint64(len(keys))
				for len(keys) > 0 {
					m := min(len(keys), width)
					got.flushWave(keys[:m], nil)
					keys = keys[m:]
				}
			}
			if gotN != wantN {
				t.Fatalf("k=%d width=%d: counted %d, want %d", k, width, gotN, wantN)
			}
			if !tablesEqual(want, got) || got.Probes != want.Probes {
				t.Fatalf("k=%d width=%d: table or probes (%d, want %d) differ from CountSeq's", k, width, got.Probes, want.Probes)
			}
		}
	}
}

// A worker's steady state must not allocate: once its packing buffer,
// chunk scratch and table have grown to the largest chunk and
// partition, binning and counting the same reads again allocates
// nothing.
func TestPackedBatchedZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	reads := make([]genome.Seq, 40)
	for i := range reads {
		reads[i] = genome.Random(rng, 1000)
	}
	b := NewBins(reads, 17)
	if b.Parts() < 2 {
		t.Fatalf("%d partition(s), want several", b.Parts())
	}
	w := NewCounter()
	pass := func() {
		for c := range b.Chunks() {
			b.Fill(w, c)
		}
		for p := range b.Parts() {
			b.Count(w, p)
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("steady-state allocs/run = %v, want 0", allocs)
	}
}

// The kernel path (the partitioned count, its chunks decoded on the
// packed decoder and its partitions inserted through the wave) must
// agree with the serial counter's table.
func TestKernelBatchedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reads := make([]genome.Seq, 30)
	for i := range reads {
		reads[i] = genome.Random(rng, 100+rng.Intn(400))
	}
	want := NewTable(64)
	var wantN uint64
	for _, r := range reads {
		wantN += CountSeq(want, r, 17)
	}
	b := NewBins(reads, 17)
	if b.Parts() < 2 {
		t.Fatalf("%d k-mers make %d partition(s), want several", wantN, b.Parts())
	}
	res := countBins(b, 4)
	if uint64(res.kmers) != wantN {
		t.Fatalf("kernel counted %d k-mers, want %d", res.kmers, wantN)
	}
	if got := res.all(); !slices.Equal(got, want.Sorted()) {
		t.Fatalf("kernel holds %d distinct (k-mer, count) pairs, serial table %d, and they differ", len(got), want.Len())
	}
}
