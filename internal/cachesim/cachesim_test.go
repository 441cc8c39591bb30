package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheHitAfterFill(t *testing.T) {
	c := NewCache("L1", 1024, 2, 64)
	if miss, _ := c.accessLine(7, false); !miss {
		t.Error("first access should miss")
	}
	if miss, _ := c.accessLine(7, false); miss {
		t.Error("second access should hit")
	}
	if c.Accesses != 2 || c.Misses != 1 {
		t.Errorf("accesses=%d misses=%d", c.Accesses, c.Misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2-way, 1 set: size = 2 ways * 64 line = 128.
	c := NewCache("tiny", 128, 2, 64)
	c.accessLine(0, false)
	c.accessLine(1, false)
	c.accessLine(0, false) // touch 0 so 1 is LRU
	c.accessLine(2, false) // evicts 1
	if miss, _ := c.accessLine(0, false); miss {
		t.Error("line 0 should still be resident")
	}
	if miss, _ := c.accessLine(1, false); !miss {
		t.Error("line 1 should have been evicted")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := NewCache("tiny", 128, 2, 64)
	c.accessLine(0, true) // dirty
	c.accessLine(1, false)
	_, wb := c.accessLine(2, false) // evicts 0 (LRU, dirty)
	if !wb {
		t.Error("expected writeback of dirty line")
	}
	if c.Writebacks != 1 {
		t.Errorf("Writebacks = %d", c.Writebacks)
	}
}

func TestCacheBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two sets")
		}
	}()
	NewCache("bad", 192, 1, 64)
}

func TestHierarchySequentialVsRandom(t *testing.T) {
	// A sequential scan should have far fewer misses per byte than
	// uniform random accesses over a large region.
	cfg := XeonE31240v5()
	seq := NewHierarchy(cfg)
	for i := 0; i < 100000; i++ {
		seq.Access(uint64(i)*4, 4, false)
	}
	rngH := NewHierarchy(cfg)
	rng := rand.New(rand.NewSource(1))
	span := uint64(1 << 30)
	for i := 0; i < 100000; i++ {
		rngH.Access(rng.Uint64()%span, 4, false)
	}
	if seq.L1.MissRatio() >= rngH.L1.MissRatio() {
		t.Errorf("sequential miss ratio %.3f !< random %.3f",
			seq.L1.MissRatio(), rngH.L1.MissRatio())
	}
	if seq.DRAMBytes >= rngH.DRAMBytes {
		t.Errorf("sequential DRAM bytes %d !< random %d", seq.DRAMBytes, rngH.DRAMBytes)
	}
}

func TestHierarchySmallWorkingSetFitsInL1(t *testing.T) {
	h := NewHierarchy(XeonE31240v5())
	// 16 KB working set scanned repeatedly fits in a 32 KB L1.
	for pass := 0; pass < 10; pass++ {
		for off := uint64(0); off < 16<<10; off += 64 {
			h.Access(off, 8, false)
		}
	}
	if mr := h.L1.MissRatio(); mr > 0.15 {
		t.Errorf("L1 miss ratio %.3f too high for resident working set", mr)
	}
}

func TestHierarchyStraddlingAccess(t *testing.T) {
	h := NewHierarchy(XeonE31240v5())
	h.Access(60, 8, false) // crosses the 64-byte boundary
	if h.L1.Accesses != 2 {
		t.Errorf("straddling access touched %d lines, want 2", h.L1.Accesses)
	}
}

func TestReportBPKIAndStall(t *testing.T) {
	h := NewHierarchy(XeonE31240v5())
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		h.Access(rng.Uint64()%(1<<32), 4, false)
	}
	rep := h.Report(1_000_000)
	if rep.BPKI <= 0 {
		t.Error("BPKI should be positive for a random stream")
	}
	if rep.StallFraction <= 0 || rep.StallFraction >= 1 {
		t.Errorf("StallFraction = %v, want in (0,1)", rep.StallFraction)
	}
}

func TestReportZeroInstructions(t *testing.T) {
	h := NewHierarchy(XeonE31240v5())
	rep := h.Report(0)
	if rep.BPKI != 0 {
		t.Error("BPKI should be 0 with no instructions")
	}
}

func TestTopDownSumsToOne(t *testing.T) {
	f := func(nAcc uint16, branchPct, vecPct uint8) bool {
		h := NewHierarchy(XeonE31240v5())
		rng := rand.New(rand.NewSource(int64(nAcc)))
		for i := 0; i < int(nAcc); i++ {
			h.Access(rng.Uint64()%(1<<28), 4, false)
		}
		td := h.TopDownEstimate(uint64(nAcc)*10+1000,
			float64(branchPct%101)/100, float64(vecPct%101)/100)
		sum := td.Retiring + td.BadSpeculation + td.FrontendBound + td.BackendMemory + td.BackendCore
		return sum > 0.999 && sum < 1.001 &&
			td.Retiring >= 0 && td.BackendMemory >= 0 && td.BackendCore >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMissesNeverExceedAccesses(t *testing.T) {
	f := func(addrs []uint32) bool {
		h := NewHierarchy(XeonE31240v5())
		for _, a := range addrs {
			h.Access(uint64(a), 4, a%3 == 0)
		}
		return h.L1.Misses <= h.L1.Accesses &&
			h.L2.Misses <= h.L2.Accesses &&
			h.LLC.Misses <= h.LLC.Accesses &&
			h.L2.Accesses <= h.L1.Misses+h.L1.Writebacks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// A software prefetch must install the line (the following demand
// access hits) while charging only the discounted stall penalty.
func TestPrefetchInstallsLineAtDiscount(t *testing.T) {
	demand := NewHierarchy(XeonE31240v5())
	prefetched := NewHierarchy(XeonE31240v5())
	rng := rand.New(rand.NewSource(99))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = (rng.Uint64() % (1 << 27)) &^ 63 // distinct-ish random lines
	}
	for _, a := range addrs {
		demand.Access(a, 8, false)
	}
	for _, a := range addrs {
		prefetched.Prefetch(a, 8)
		prefetched.Access(a, 8, false)
	}
	if prefetched.Prefetches != uint64(len(addrs)) {
		t.Fatalf("Prefetches = %d, want %d", prefetched.Prefetches, len(addrs))
	}
	sd := demand.Report(1_000_000)
	sp := prefetched.Report(1_000_000)
	if sp.CyclesEstimate >= sd.CyclesEstimate {
		t.Fatalf("prefetched run should stall less: %f vs %f cycles",
			sp.CyclesEstimate, sd.CyclesEstimate)
	}
	// The discount is 0.25, so the prefetched stall should be
	// roughly a quarter of the demand stall (same miss set).
	stallD := sd.CyclesEstimate * sd.StallFraction
	stallP := sp.CyclesEstimate * sp.StallFraction
	if stallP > 0.5*stallD {
		t.Fatalf("prefetched stall %f not below half of demand stall %f", stallP, stallD)
	}
}

// ResetStats must zero the prefetch counter with the rest.
func TestResetStatsClearsPrefetches(t *testing.T) {
	h := NewHierarchy(XeonE31240v5())
	h.Prefetch(0, 8)
	h.ResetStats()
	if h.Prefetches != 0 {
		t.Fatalf("Prefetches = %d after ResetStats", h.Prefetches)
	}
}
