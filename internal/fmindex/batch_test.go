package fmindex

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/genome"
)

// serialSMEMs is the reference: per-read serial enumeration with
// per-read lookup counts.
func serialSMEMs(x *Index, reads []genome.Seq, minLen, minHits int) ([][]SMEM, []uint64) {
	out := make([][]SMEM, len(reads))
	lks := make([]uint64, len(reads))
	for i, r := range reads {
		out[i] = x.FindSMEMsTraced(r, minLen, minHits, &lks[i], nil)
	}
	return out, lks
}

// batchSMEMs runs the engine at the given width, capturing per-read
// copies and per-read lookup counts.
func batchSMEMs(x *Index, reads []genome.Seq, minLen, minHits, width int) ([][]SMEM, []uint64, error) {
	out := make([][]SMEM, len(reads))
	lks := make([]uint64, len(reads))
	e := NewBatchEngine(x, width, nil)
	err := e.Run(reads, minLen, minHits, nil, func(i int, smems []SMEM, lk uint64) {
		out[i] = append([]SMEM(nil), smems...)
		lks[i] = lk
	})
	return out, lks, err
}

func compareSMEMs(t *testing.T, tag string, reads []genome.Seq, want, got [][]SMEM, wantLk, gotLk []uint64) {
	t.Helper()
	for i := range reads {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("%s: read %d (len %d): batched SMEMs diverge\nserial:  %+v\nbatched: %+v",
				tag, i, len(reads[i]), want[i], got[i])
		}
		if wantLk[i] != gotLk[i] {
			t.Fatalf("%s: read %d: lookup count %d, serial %d", tag, i, gotLk[i], wantLk[i])
		}
	}
}

// The batched engine must reproduce the serial enumeration exactly —
// same SMEMs in the same order, same per-read Occ lookup counts —
// across random reads, read lengths (including empty and shorter than
// the batch width), and minLen/minHits settings.
func TestSmemBatchDifferentialExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := genome.Random(rng, 4096)
	x := Build(g)
	for _, tc := range []struct{ minLen, minHits int }{
		{1, 1}, {8, 1}, {19, 1}, {12, 2}, {6, 4}, {19, 0},
	} {
		var reads []genome.Seq
		// Genome-derived reads with mutations: long SMEM walks.
		for n := 0; n < 24; n++ {
			l := 1 + rng.Intn(160)
			start := rng.Intn(len(g) - l + 1)
			r := g[start : start+l].Clone()
			for m := 0; m < rng.Intn(4); m++ {
				r[rng.Intn(l)] = genome.Base(rng.Intn(4))
			}
			reads = append(reads, r)
		}
		// Pure random reads, empties, and single-base reads.
		for n := 0; n < 12; n++ {
			reads = append(reads, genome.Random(rng, rng.Intn(40)))
		}
		reads = append(reads, genome.Seq{}, genome.Seq{0}, genome.Seq{3})
		want, wantLk := serialSMEMs(x, reads, tc.minLen, tc.minHits)
		got, gotLk, err := batchSMEMs(x, reads, tc.minLen, tc.minHits, 8)
		if err != nil {
			t.Fatal(err)
		}
		compareSMEMs(t, "batch8", reads, want, got, wantLk, gotLk)
	}
}

// Width is pure dispatch policy: every width must produce identical
// output, including widths far larger than the read count.
func TestSmemBatchForcedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := genome.Random(rng, 2048)
	x := Build(g)
	reads := make([]genome.Seq, 9) // fewer reads than the widest engine
	for i := range reads {
		l := 20 + rng.Intn(100)
		start := rng.Intn(len(g) - l)
		reads[i] = g[start : start+l].Clone()
		reads[i][rng.Intn(l)] = genome.Base(rng.Intn(4))
	}
	want, wantLk := serialSMEMs(x, reads, 15, 1)
	for _, w := range []int{1, 2, 3, 5, 8, 17, 64} {
		got, gotLk, err := batchSMEMs(x, reads, 15, 1, w)
		if err != nil {
			t.Fatal(err)
		}
		compareSMEMs(t, "width", reads, want, got, wantLk, gotLk)
	}
	if e := NewBatchEngine(x, 0, nil); e.width != BatchWidth {
		t.Fatalf("width 0 resolved to %d, want BatchWidth %d", e.width, BatchWidth)
	}
}

// The empty-interval early-out: a base absent from the forward strand
// of an all-A genome still occurs via the reverse complement, so use
// reads over a two-letter genome where some extensions die instantly,
// plus literal first-base dead ends on a crafted index.
func TestSmemBatchEmptyIntervalEarlyOut(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	// Genome of only A and C: G/T appear only as revcomp; random G/T
	// runs in reads collapse intervals fast, exercising the iv.S == 0
	// early-out and single-position anchors.
	g := make(genome.Seq, 600)
	for i := range g {
		g[i] = genome.Base(rng.Intn(2)) // A or C
	}
	x := Build(g)
	reads := make([]genome.Seq, 20)
	for i := range reads {
		reads[i] = genome.Random(rng, 1+rng.Intn(60)) // all four letters
	}
	want, wantLk := serialSMEMs(x, reads, 4, 1)
	got, gotLk, err := batchSMEMs(x, reads, 4, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	compareSMEMs(t, "earlyout", reads, want, got, wantLk, gotLk)
}

// searchConcurrently runs reads the way a task loop does: threads
// goroutines, each with its own engine of the given width (and its
// tracer, when tracers is set), claim chunks of consecutive reads.
// It returns per-read copies of the SMEMs and per-read lookup counts.
func searchConcurrently(x *Index, reads []genome.Seq, minLen, threads, width int, tracers []MemTracer) ([][]SMEM, []uint64) {
	const chunk = 5
	out := make([][]SMEM, len(reads))
	lks := make([]uint64, len(reads))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		var tr MemTracer
		if tracers != nil {
			tr = tracers[w]
		}
		e := NewBatchEngine(x, width, tr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := int(next.Add(chunk)) - chunk; lo < len(reads); lo = int(next.Add(chunk)) - chunk {
				// No admit hook, so Run cannot fail.
				_ = e.Run(reads[lo:min(lo+chunk, len(reads))], minLen, 1, nil, func(r int, smems []SMEM, lk uint64) {
					out[lo+r] = append([]SMEM(nil), smems...)
					lks[lo+r] = lk
				})
			}
		}()
	}
	wg.Wait()
	return out, lks
}

// countingTracer counts accesses with a plain (unsynchronized) field —
// exactly the kind of tracer that raced when shared across workers.
type countingTracer struct{ accesses uint64 }

func (c *countingTracer) Access(uint64, int, bool) { c.accesses++ }

// Engines searching chunks of one read set concurrently must give
// every read its serial SMEMs and lookup count, at every goroutine
// count and width.
func TestSmemBatchKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := genome.Random(rng, 8192)
	x := Build(g)
	reads := make([]genome.Seq, 64)
	for i := range reads {
		l := 30 + rng.Intn(90)
		start := rng.Intn(len(g) - l)
		reads[i] = g[start : start+l].Clone()
	}
	want, wantLk := serialSMEMs(x, reads, 19, 1)
	for _, threads := range []int{1, 2, 4} {
		for _, width := range []int{0, 1, 8, 32} {
			got, gotLk := searchConcurrently(x, reads, 19, threads, width, nil)
			compareSMEMs(t, fmt.Sprintf("threads=%d width=%d", threads, width), reads, want, got, wantLk, gotLk)
		}
	}
}

// Concurrent per-worker engines must be race-free (run under -race in
// CI) and still bit-exact. Each routes its address stream to its own
// tracer and never to the index's shared, unsynchronized Tracer: the
// merged per-worker streams hold exactly one access per Occ lookup.
func TestSmemBatchRaceHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := genome.Random(rng, 4096)
	x := Build(g)
	reads := make([]genome.Seq, 300)
	for i := range reads {
		l := 10 + rng.Intn(80)
		start := rng.Intn(len(g) - l)
		reads[i] = g[start : start+l].Clone()
	}
	want, wantLk := serialSMEMs(x, reads, 15, 1)
	var lookups uint64
	for _, lk := range wantLk {
		lookups += lk
	}
	shared := &countingTracer{}
	x.Tracer = shared
	for rep := 0; rep < 3; rep++ {
		counting := make([]*countingTracer, 8)
		tracers := make([]MemTracer, len(counting))
		for w := range counting {
			counting[w] = &countingTracer{}
			tracers[w] = counting[w]
		}
		got, gotLk := searchConcurrently(x, reads, 15, len(tracers), 4+rep*6, tracers)
		compareSMEMs(t, fmt.Sprintf("rep %d", rep), reads, want, got, wantLk, gotLk)
		var merged uint64
		for _, c := range counting {
			merged += c.accesses
		}
		// The checkpoint counts and the 64 rows they precede share one
		// 64-byte block, so every Occ lookup is exactly one access.
		if merged != lookups {
			t.Fatalf("rep %d: merged tracer accesses = %d, want Occ lookups = %d", rep, merged, lookups)
		}
	}
	if shared.accesses != 0 {
		t.Fatalf("engines used the shared x.Tracer (%d accesses)", shared.accesses)
	}
}

// An admit error (the kernel's fault/cancel point) must abort the run
// with that error.
func TestSmemBatchAdmitError(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	g := genome.Random(rng, 1024)
	x := Build(g)
	reads := make([]genome.Seq, 20)
	for i := range reads {
		reads[i] = genome.Random(rng, 30)
	}
	boom := errors.New("boom")
	e := NewBatchEngine(x, 4, nil)
	emitted := 0
	err := e.Run(reads, 10, 1, func(i int) error {
		if i == 7 {
			return boom
		}
		return nil
	}, func(int, []SMEM, uint64) { emitted++ })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if emitted > 7 {
		t.Fatalf("emitted %d reads after the fault point", emitted)
	}
}

// Steady-state engine reuse must not allocate: the lanes' candidate
// lists and output buffers are grow-only scratch. The width-1 engine
// over one long read is the shape scenario/metagenomics' smem stage
// runs per item.
func TestBatchEngineZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := genome.Random(rng, 4096)
	x := Build(g)
	short := make([]genome.Seq, 40)
	for i := range short {
		l := 30 + rng.Intn(60)
		start := rng.Intn(len(g) - l)
		short[i] = g[start : start+l].Clone()
	}
	long := g[1000:2200].Clone()
	for m := 0; m < 96; m++ {
		long[rng.Intn(len(long))] = genome.Base(rng.Intn(4))
	}
	for _, tc := range []struct {
		width int
		reads []genome.Seq
	}{{8, short}, {1, []genome.Seq{long}}} {
		e := NewBatchEngine(x, tc.width, nil)
		var sink int
		emit := func(_ int, smems []SMEM, _ uint64) { sink += len(smems) }
		run := func() {
			if err := e.Run(tc.reads, 19, 1, nil, emit); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the grow-only scratch
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Fatalf("width %d: steady-state allocs/run = %v, want 0", tc.width, allocs)
		}
		if sink == 0 {
			t.Fatalf("width %d: no SMEMs found", tc.width)
		}
	}
}

// The lock-step engine's reordered address stream must simulate
// strictly less stall than the serial walk on the same reads: demand
// accesses land on lines the discounted prefetches already installed.
// This is the claim the whole tentpole rests on, scored by cachesim.
func TestBatchedStallBelowSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	g := genome.Random(rng, 1<<18) // Occ regions far exceed the simulated L1/L2
	x := Build(g)
	reads := make([]genome.Seq, 96)
	for i := range reads {
		l := 80 + rng.Intn(60)
		start := rng.Intn(len(g) - l)
		reads[i] = g[start : start+l].Clone()
		for m := 0; m < 2; m++ {
			reads[i][rng.Intn(l)] = genome.Base(rng.Intn(4))
		}
	}

	serial := cachesim.NewHierarchy(cachesim.XeonE31240v5())
	var serialLk uint64
	for _, r := range reads {
		x.FindSMEMsTraced(r, 19, 1, &serialLk, serial)
	}

	batched := cachesim.NewHierarchy(cachesim.XeonE31240v5())
	var batchedLk uint64
	err := NewBatchEngine(x, 16, batched).Run(reads, 19, 1, nil, func(_ int, _ []SMEM, lk uint64) {
		batchedLk += lk
	})
	if err != nil {
		t.Fatal(err)
	}

	if serialLk != batchedLk {
		t.Fatalf("lookup counts diverge: serial %d, batched %d", serialLk, batchedLk)
	}
	// Identical demand stream size; the prefetch stream rides alongside.
	if serial.Reads != batched.Reads {
		t.Fatalf("demand access counts diverge: serial %d, batched %d", serial.Reads, batched.Reads)
	}
	if batched.Prefetches == 0 {
		t.Fatal("batched trace issued no prefetches")
	}
	instr := serialLk * 7 // rough op mix; identical on both sides
	rs := serial.Report(instr)
	rb := batched.Report(instr)
	if rb.CyclesEstimate >= rs.CyclesEstimate {
		t.Fatalf("batched cycle estimate %.0f not below serial %.0f",
			rb.CyclesEstimate, rs.CyclesEstimate)
	}
	stallS := rs.CyclesEstimate * rs.StallFraction
	stallB := rb.CyclesEstimate * rb.StallFraction
	if stallB >= stallS {
		t.Fatalf("batched stall %.0f not below serial stall %.0f", stallB, stallS)
	}
	t.Logf("stall cycles: serial %.0f -> batched %.0f (%.2fx), L1 miss %.3f -> %.3f",
		stallS, stallB, stallS/stallB, rs.L1MissRatio, rb.L1MissRatio)
}
