package cachesim

import (
	"math/rand"
	"testing"
)

// refLRUSet is a straightforward reference model of one set: a slice
// ordered most-recently-used first.
type refLRUSet struct {
	lines []uint64
	ways  int
}

func (s *refLRUSet) access(line uint64) (miss bool) {
	for i, l := range s.lines {
		if l == line {
			copy(s.lines[1:i+1], s.lines[:i])
			s.lines[0] = line
			return false
		}
	}
	s.lines = append([]uint64{line}, s.lines...)
	if len(s.lines) > s.ways {
		s.lines = s.lines[:s.ways]
	}
	return true
}

// TestCacheMatchesReferenceLRU drives one cache and the reference model
// with the same random line stream and demands identical hit/miss
// behaviour on every access.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const ways = 4
	const sets = 8
	c := NewCache("t", sets*ways*64, ways, 64)
	ref := make([]refLRUSet, sets)
	for i := range ref {
		ref[i].ways = ways
	}
	for step := 0; step < 20000; step++ {
		line := uint64(rng.Intn(64)) // 64 distinct lines over 8 sets
		set := int(line % sets)
		wantMiss := ref[set].access(line)
		gotMiss, _ := c.accessLine(line, rng.Intn(2) == 0)
		if gotMiss != wantMiss {
			t.Fatalf("step %d line %d: cache miss=%v, reference miss=%v", step, line, gotMiss, wantMiss)
		}
	}
	if c.Misses == 0 || c.Misses == c.Accesses {
		t.Fatalf("degenerate stream: %d misses of %d", c.Misses, c.Accesses)
	}
}

// TestWritebackOnlyAfterDirtying: clean lines must never write back.
func TestWritebackOnlyAfterDirtying(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := NewCache("t", 2*64, 2, 64) // 1 set, 2 ways
	for step := 0; step < 5000; step++ {
		_, wb := c.accessLine(uint64(rng.Intn(8)), false) // reads only
		if wb {
			t.Fatal("read-only stream produced a writeback")
		}
	}
}

// TestHierarchyInclusionTraffic: L2 accesses can only originate from L1
// misses or writebacks, and LLC from L2 misses or writebacks.
func TestHierarchyInclusionTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHierarchy(XeonE31240v5())
	for i := 0; i < 50000; i++ {
		h.Access(rng.Uint64()%(64<<20), 8, rng.Intn(3) == 0)
	}
	if h.L2.Accesses > h.L1.Misses+h.L1.Writebacks {
		t.Errorf("L2 accesses %d exceed L1 misses %d + writebacks %d",
			h.L2.Accesses, h.L1.Misses, h.L1.Writebacks)
	}
	if h.LLC.Accesses > h.L2.Misses+h.L2.Writebacks {
		t.Errorf("LLC accesses %d exceed L2 misses %d + writebacks %d",
			h.LLC.Accesses, h.L2.Misses, h.L2.Writebacks)
	}
	if h.DRAMBytes%uint64(h.cfg.LineSize) != 0 {
		t.Error("DRAM traffic not line-aligned")
	}
}
