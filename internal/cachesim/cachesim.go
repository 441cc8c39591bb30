// Package cachesim is a trace-driven cache-hierarchy simulator standing
// in for the hardware performance counters used in GenomicsBench's
// memory characterization (paper Figures 6, 8 and 9 and Table I).
//
// Kernels replay the address streams of their dominant data structures
// (Occ-table lookups, hash-table probes, DP-matrix rows, ...) into a
// Hierarchy; the simulator reports per-level miss ratios, DRAM traffic
// in bytes per kilo-instruction (BPKI), an estimated fraction of cycles
// stalled on data, and a simple top-down pipeline-slot breakdown.
package cachesim

import (
	"fmt"
	"math/bits"
)

// Cache is one set-associative, write-allocate, write-back cache level
// with LRU replacement.
type Cache struct {
	sets int
	ways int

	offsetBits uint
	indexMask  uint64

	// tags[set*ways+way]; age implements LRU via a monotonically
	// increasing access clock.
	tags  []uint64
	valid []bool
	dirty []bool
	age   []uint64
	clock uint64

	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

// NewCache builds a cache of the given total size in bytes. size must be
// ways*lineSize*powerOfTwo.
func NewCache(name string, size, ways, lineSize int) *Cache {
	if size <= 0 || ways <= 0 || lineSize <= 0 {
		panic("cachesim: non-positive cache geometry")
	}
	sets := size / (ways * lineSize)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cachesim: %s: set count %d not a power of two", name, sets))
	}
	if lineSize&(lineSize-1) != 0 {
		panic("cachesim: line size not a power of two")
	}
	c := &Cache{
		sets:       sets,
		ways:       ways,
		offsetBits: uint(bits.TrailingZeros(uint(lineSize))),
		indexMask:  uint64(sets - 1),
		tags:       make([]uint64, sets*ways),
		valid:      make([]bool, sets*ways),
		dirty:      make([]bool, sets*ways),
		age:        make([]uint64, sets*ways),
	}
	return c
}

// MissRatio reports misses/accesses, or 0 with no accesses.
func (c *Cache) MissRatio() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// accessLine looks up one line address. It returns whether the access
// missed and whether a dirty line was evicted.
func (c *Cache) accessLine(lineAddr uint64, write bool) (miss, writeback bool) {
	c.clock++
	c.Accesses++
	set := int(lineAddr & c.indexMask)
	base := set * c.ways
	// Hit path.
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == lineAddr {
			c.age[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			return false, false
		}
	}
	// Miss: find victim (invalid first, else LRU).
	c.Misses++
	victim := base
	for w := 0; w < c.ways; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			break
		}
		if c.age[i] < c.age[victim] {
			victim = i
		}
	}
	writeback = c.valid[victim] && c.dirty[victim]
	if writeback {
		c.Writebacks++
	}
	c.valid[victim] = true
	c.tags[victim] = lineAddr
	c.dirty[victim] = write
	c.age[victim] = c.clock
	return true, writeback
}

// Config describes a three-level hierarchy geometry plus the latency and
// cost parameters of the stall model.
type Config struct {
	L1Size, L1Ways   int
	L2Size, L2Ways   int
	LLCSize, LLCWays int
	LineSize         int

	// Latency model (cycles).
	L1Latency   float64 // charged on every access (hidden; not stalled)
	L2Latency   float64 // extra cycles on L1 miss
	LLCLatency  float64 // extra cycles on L2 miss
	DRAMLatency float64 // extra cycles on LLC miss

	// MLP is the average number of overlapping outstanding misses; stall
	// cycles are divided by it.
	MLP float64

	// BaseCPI is the no-stall cycles-per-instruction of the core.
	BaseCPI float64
}

// DefaultPrefetchDiscount is the stall fraction charged to a software
// prefetch (Hierarchy.Prefetch). A prefetch issued a batch rotation
// ahead of use overlaps its miss with other lanes' compute and with
// sibling prefetches, so only a fraction of the raw latency surfaces
// as stall: one quarter of the demand-miss penalty, i.e. a batch
// window deep enough to overlap four misses — the conservative end of
// what lock-step batching achieves.
const DefaultPrefetchDiscount = 0.25

// XeonE31240v5 mirrors the paper's Table I machine: 32 KB 8-way L1D,
// 256 KB 8-way L2, 8 MB 16-way LLC, 64 B lines.
func XeonE31240v5() Config {
	return Config{
		L1Size: 32 << 10, L1Ways: 8,
		L2Size: 256 << 10, L2Ways: 8,
		LLCSize: 8 << 20, LLCWays: 16,
		LineSize:    64,
		L1Latency:   4,
		L2Latency:   8,
		LLCLatency:  30,
		DRAMLatency: 200,
		MLP:         4,
		BaseCPI:     0.4,
	}
}

// Hierarchy simulates an inclusive-enough three-level data-cache path.
type Hierarchy struct {
	cfg Config
	L1  *Cache
	L2  *Cache
	LLC *Cache

	Reads, Writes  uint64
	Prefetches     uint64 // software prefetches (Prefetch calls)
	DRAMBytes      uint64 // line fills + writebacks reaching DRAM
	penaltyCyclesX float64
	lastMissLine   uint64
}

// NewHierarchy builds a hierarchy from a Config.
func NewHierarchy(cfg Config) *Hierarchy {
	return &Hierarchy{
		cfg: cfg,
		L1:  NewCache("L1D", cfg.L1Size, cfg.L1Ways, cfg.LineSize),
		L2:  NewCache("L2", cfg.L2Size, cfg.L2Ways, cfg.LineSize),
		LLC: NewCache("LLC", cfg.LLCSize, cfg.LLCWays, cfg.LineSize),
	}
}

// ResetStats zeroes all counters while keeping cache contents, so a
// warm-up pass over resident data structures is excluded from the
// measured steady state.
func (h *Hierarchy) ResetStats() {
	for _, c := range []*Cache{h.L1, h.L2, h.LLC} {
		c.Accesses, c.Misses, c.Writebacks = 0, 0, 0
	}
	h.Reads, h.Writes, h.Prefetches, h.DRAMBytes = 0, 0, 0, 0
	h.penaltyCyclesX = 0
}

// Access simulates one data access of size bytes at addr, splitting it
// into line accesses when it straddles line boundaries.
func (h *Hierarchy) Access(addr uint64, size int, write bool) {
	if size <= 0 {
		size = 1
	}
	line := uint64(h.cfg.LineSize)
	first := addr / line
	last := (addr + uint64(size) - 1) / line
	for la := first; la <= last; la++ {
		h.accessOneLine(la, write, 1)
	}
	if write {
		h.Writes++
	} else {
		h.Reads++
	}
}

// Prefetch simulates a software prefetch of size bytes at addr: the
// touched lines are installed through the full hierarchy exactly like
// a read (so a later demand access hits), but any miss latency is
// charged at DefaultPrefetchDiscount — the model of a prefetch issued
// early enough that most of its miss overlaps useful work. This is how
// the batched SMEM/kmer engines prove their reordered streams stall
// less: same demand addresses, misses moved onto discounted prefetches.
func (h *Hierarchy) Prefetch(addr uint64, size int) {
	if size <= 0 {
		size = 1
	}
	line := uint64(h.cfg.LineSize)
	first := addr / line
	last := (addr + uint64(size) - 1) / line
	for la := first; la <= last; la++ {
		h.accessOneLine(la, false, DefaultPrefetchDiscount)
	}
	h.Prefetches++
}

func (h *Hierarchy) accessOneLine(lineAddr uint64, write bool, penaltyScale float64) {
	miss1, wb1 := h.L1.accessLine(lineAddr, write)
	if wb1 {
		// Dirty L1 victim is absorbed by L2 (write-back path); modelled
		// as an L2 write access.
		h.L2.accessLine(lineAddr^0x5bd1e995, true)
	}
	if !miss1 {
		return
	}
	// A hardware stream prefetcher hides most of the latency of
	// next-line misses; sequential streams still move DRAM bytes but
	// stall far less than random misses. penaltyScale layers the
	// software-prefetch discount on top (1 for demand accesses).
	penalty := penaltyScale
	if lineAddr == h.lastMissLine+1 {
		penalty *= 0.15
	}
	h.lastMissLine = lineAddr
	h.penaltyCyclesX += penalty * h.cfg.L2Latency
	miss2, wb2 := h.L2.accessLine(lineAddr, false)
	if wb2 {
		h.LLC.accessLine(lineAddr^0x9e3779b9, true)
	}
	if !miss2 {
		return
	}
	h.penaltyCyclesX += penalty * h.cfg.LLCLatency
	miss3, wb3 := h.LLC.accessLine(lineAddr, false)
	if wb3 {
		h.DRAMBytes += uint64(h.cfg.LineSize)
	}
	if miss3 {
		h.penaltyCyclesX += penalty * h.cfg.DRAMLatency
		h.DRAMBytes += uint64(h.cfg.LineSize)
	}
}

// Report summarizes a simulated kernel execution against an instruction
// count (taken from the kernel's perf counters).
type Report struct {
	Instructions   uint64
	L1MissRatio    float64
	L2MissRatio    float64
	LLCMissRatio   float64
	BPKI           float64 // DRAM bytes per kilo-instruction
	StallFraction  float64 // fraction of cycles stalled on data
	CyclesEstimate float64
}

// Report computes miss ratios, BPKI and the stall estimate for a run
// that executed the given number of instructions.
func (h *Hierarchy) Report(instructions uint64) Report {
	r := Report{
		Instructions: instructions,
		L1MissRatio:  h.L1.MissRatio(),
		L2MissRatio:  h.L2.MissRatio(),
		LLCMissRatio: h.LLC.MissRatio(),
	}
	if instructions > 0 {
		r.BPKI = float64(h.DRAMBytes) / (float64(instructions) / 1000)
	}
	mlp := h.cfg.MLP
	if mlp < 1 {
		mlp = 1
	}
	stall := h.penaltyCyclesX / mlp
	busy := h.cfg.BaseCPI * float64(instructions)
	r.CyclesEstimate = busy + stall
	if r.CyclesEstimate > 0 {
		r.StallFraction = stall / r.CyclesEstimate
	}
	return r
}

// TopDown is a coarse top-down pipeline-slot breakdown in the style of
// the paper's Figure 9. Fractions sum to 1.
type TopDown struct {
	Retiring       float64
	BadSpeculation float64
	FrontendBound  float64
	BackendMemory  float64
	BackendCore    float64
}

// TopDownEstimate derives a slot breakdown from the stall model plus the
// kernel's branch and vector/float op shares: memory stalls come from
// the cache simulation, backend-core pressure from vector/FP port
// contention, bad speculation from branch density.
func (h *Hierarchy) TopDownEstimate(instructions uint64, branchFrac, vecFloatFrac float64) TopDown {
	rep := h.Report(instructions)
	td := TopDown{}
	td.BackendMemory = rep.StallFraction
	remaining := 1 - td.BackendMemory
	// Mispredict-driven slot waste: assume a few percent of branches
	// mispredict; data-dependent branches dominate these kernels.
	td.BadSpeculation = remaining * branchFrac * 0.25
	td.FrontendBound = remaining * 0.05
	// Vector and FP ops contend for limited issue ports.
	td.BackendCore = remaining * vecFloatFrac * 0.45
	td.Retiring = 1 - td.BackendMemory - td.BadSpeculation - td.FrontendBound - td.BackendCore
	if td.Retiring < 0 {
		td.Retiring = 0
	}
	return td
}
