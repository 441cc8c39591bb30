package kmercnt

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/genome"
)

func naiveCounts(reads []genome.Seq, k int) map[uint64]uint32 {
	m := map[uint64]uint32{}
	for _, r := range reads {
		genome.EachKmer(r, k, func(_ int, code uint64) {
			m[Canonical(code, k)]++
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
	for _, mode := range []Probing{Linear, RobinHood} {
		tab := NewTable(64, mode) // force growth
		var total uint64
		for _, r := range reads {
			total += CountSeq(tab, r, k)
		}
		if tab.Len() != len(want) {
			t.Fatalf("mode %d: %d distinct, want %d", mode, tab.Len(), len(want))
		}
		for key, count := range want {
			if got := tab.Count(key); got != count {
				t.Fatalf("mode %d: Count(%x) = %d, want %d", mode, key, got, count)
			}
		}
		if total != uint64(20*(200-k+1)) {
			t.Errorf("processed %d k-mers", total)
		}
	}
}

func TestCanonicalInvolution(t *testing.T) {
	f := func(raw uint64) bool {
		k := 15
		code := raw & (1<<(2*15) - 1)
		canon := Canonical(code, k)
		// Canonical of the reverse complement must equal canonical of code.
		rc := uint64(0)
		x := code
		for i := 0; i < k; i++ {
			rc = rc<<2 | (3 - (x & 3))
			x >>= 2
		}
		return Canonical(rc, k) == canon && canon <= code
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCanonicalMatchesSequences(t *testing.T) {
	s := genome.MustFromString("ACGTTGCAACGTTGT")
	k := len(s)
	code := genome.KmerCode(s, 0, k)
	rcCode := genome.KmerCode(s.ReverseComplement(), 0, k)
	if Canonical(code, k) != Canonical(rcCode, k) {
		t.Error("sequence and its reverse complement canonicalize differently")
	}
}

func TestForwardAndRCReadsCountTogether(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	read := genome.Random(rng, 100)
	k := 15
	tab := NewTable(1024, Linear)
	CountSeq(tab, read, k)
	CountSeq(tab, read.ReverseComplement(), k)
	// Every canonical k-mer should now have an even count (doubled).
	for _, kc := range tab.TopKmers(1 << 20) {
		if kc.Count%2 != 0 {
			t.Fatalf("k-mer %x count %d not doubled by RC read", kc.Kmer, kc.Count)
		}
	}
}

func TestGrowthPreservesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tab := NewTable(16, RobinHood)
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
		if got := tab.Count(key); got != want {
			t.Fatalf("Count(%x) = %d, want %d", key, got, want)
		}
	}
	if tab.Cap() < 5000 {
		t.Errorf("table did not grow: cap %d", tab.Cap())
	}
}

func TestTopKmers(t *testing.T) {
	tab := NewTable(64, Linear)
	for i := 0; i < 5; i++ {
		tab.Increment(100)
	}
	for i := 0; i < 3; i++ {
		tab.Increment(200)
	}
	tab.Increment(300)
	top := tab.TopKmers(2)
	if len(top) != 2 || top[0].Kmer != 100 || top[0].Count != 5 || top[1].Kmer != 200 {
		t.Errorf("TopKmers = %v", top)
	}
}

func TestRobinHoodReducesProbesAtHighLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := make([]uint64, 40000)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	lin := NewTable(1<<14, Linear)
	rh := NewTable(1<<14, RobinHood)
	for _, k := range keys {
		lin.Increment(k)
		rh.Increment(k)
	}
	// Robin hood should not be dramatically worse; its win is bounded
	// variance. Check mean probes stay comparable (within 2x) and both
	// tables agree on counts.
	if rh.Probes > lin.Probes*2 {
		t.Errorf("robin hood probes %d vs linear %d", rh.Probes, lin.Probes)
	}
	for _, k := range keys[:100] {
		if lin.Count(k) != rh.Count(k) {
			t.Fatalf("mode disagreement on key %x", k)
		}
	}
}

func TestRunKernelMatchesNaiveDistinct(t *testing.T) {
	reads := testReads(5, 30, 150)
	k := 17
	want := naiveCounts(reads, k)
	var perRead []float64 // k-mers per read at one thread: read order
	for _, threads := range []int{1, 4} {
		res := must(RunKernelCtx(context.Background(), reads, k, threads, Linear))
		if perRead == nil {
			perRead = res.TaskStats.Work()
		}
		if !slices.Equal(res.TaskStats.Work(), perRead) {
			t.Errorf("threads=%d: sample sequence is not in read order", threads)
		}
		if res.Distinct != len(want) {
			t.Errorf("threads=%d: distinct %d, want %d", threads, res.Distinct, len(want))
		}
		if res.Kmers != uint64(30*(150-k+1)) {
			t.Errorf("threads=%d: kmers %d", threads, res.Kmers)
		}
		if res.TaskStats.Count() != 30 {
			t.Errorf("task count %d", res.TaskStats.Count())
		}
	}
}

func TestTracerReceivesAccesses(t *testing.T) {
	tab := NewTable(64, Linear)
	var accesses int
	tab.Tracer = tracerFunc(func(addr uint64, size int, write bool) { accesses++ })
	tab.Increment(42)
	if accesses == 0 {
		t.Error("tracer saw no accesses")
	}
}

type tracerFunc func(addr uint64, size int, write bool)

func (f tracerFunc) Access(addr uint64, size int, write bool) { f(addr, size, write) }

// must unwraps a RunKernelCtx result; a kernel run under a background
// context with no fault plan armed cannot fail.
func must(res KernelResult, err error) KernelResult {
	if err != nil {
		panic(err)
	}
	return res
}
