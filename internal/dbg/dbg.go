// Package dbg implements the De-Bruijn graph construction kernel from
// the Platypus variant caller: reads aligned to a reference window are
// re-assembled into a De-Bruijn graph (hash table of k-mer nodes), the
// graph is checked for cycles — retrying with a larger k when one is
// found — and candidate haplotypes are enumerated by traversing
// reference-anchored paths with sufficient read support.
package dbg

import (
	"context"

	"repro/internal/faultinject"
	"repro/internal/genome"
	"repro/internal/parallel"
	"repro/internal/perf"
)

// Config parameterizes assembly.
type Config struct {
	K             int // initial k-mer size
	MaxK          int // largest k to try when cycles appear
	KStep         int // k increment per retry
	MinEdgeWeight int // read support needed to traverse a non-reference edge
	MaxHaplotypes int // cap on enumerated haplotypes
	MaxPathLen    int // cap on haplotype length (cycle safety net)
}

// DefaultConfig mirrors Platypus-scale assembly parameters.
func DefaultConfig() Config {
	return Config{K: 15, MaxK: 65, KStep: 10, MinEdgeWeight: 2, MaxHaplotypes: 16, MaxPathLen: 4096}
}

// Region is one assembly task: a reference window plus the reads
// aligned to it.
type Region struct {
	Ref   genome.Seq
	Reads []genome.Seq
}

// node is one k-mer vertex: out-edge weights per next base, with
// reference edges flagged.
type node struct {
	weight [4]int32
	refOut int8 // reference out-edge base, -1 if none
}

// graph is a De-Bruijn graph keyed by packed k-mer code. Node payloads
// live in a contiguous slab indexed through the hash map, so a reset
// graph keeps both the slab and the map's buckets: steady-state
// assembly over same-sized regions stops allocating node storage.
type graph struct {
	k     int
	mask  uint64
	index map[uint64]int32 // k-mer code -> slab position
	slab  []node

	lookups uint64 // hash-table lookups (Table III unit)
	edges   int

	// Reusable traversal storage (cycle DFS and path enumeration).
	color   map[uint64]uint8
	stack   []frame
	pathBuf genome.Seq
}

// frame is one iterative-DFS stack entry.
type frame struct {
	code uint64
	next int
}

func newGraph(k int) *graph {
	g := &graph{}
	g.reset(k)
	return g
}

// reset clears the graph for a new build at k-mer size k, retaining
// the node slab, map buckets, and traversal buffers.
func (g *graph) reset(k int) {
	g.k = k
	g.mask = uint64(1)<<(2*uint(k)) - 1
	g.slab = g.slab[:0]
	if g.index == nil {
		g.index = make(map[uint64]int32)
	} else {
		clear(g.index)
	}
	g.lookups = 0
	g.edges = 0
}

// getNode fetches or creates the node for a k-mer code, counting the
// hash lookup either way. The returned pointer is valid until the next
// getNode call (the slab may move when it grows).
func (g *graph) getNode(code uint64) *node {
	g.lookups++
	if idx, ok := g.index[code]; ok {
		return &g.slab[idx]
	}
	g.index[code] = int32(len(g.slab))
	g.slab = append(g.slab, node{refOut: -1})
	return &g.slab[len(g.slab)-1]
}

// node looks up an existing node, counting the hash lookup. The same
// pointer-validity rule as getNode applies.
func (g *graph) node(code uint64) (*node, bool) {
	g.lookups++
	idx, ok := g.index[code]
	if !ok {
		return nil, false
	}
	return &g.slab[idx], true
}

// addSeq threads a sequence through the graph, incrementing edge
// weights; isRef additionally marks reference edges.
func (g *graph) addSeq(s genome.Seq, isRef bool) {
	if len(s) <= g.k {
		return
	}
	code := genome.KmerCode(s, 0, g.k)
	for i := g.k; i < len(s); i++ {
		nd := g.getNode(code)
		b := s[i] & 3
		if nd.weight[b] == 0 {
			g.edges++
		}
		nd.weight[b]++
		if isRef {
			nd.refOut = int8(b)
		}
		code = (code<<2 | uint64(b)) & g.mask
	}
	g.getNode(code) // terminal node
}

// hasCycleFrom detects a directed cycle reachable from start using an
// iterative three-color DFS over traversable edges.
func (g *graph) hasCycleFrom(start uint64, minWeight int32) bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	if g.color == nil {
		g.color = make(map[uint64]uint8, len(g.slab))
	} else {
		clear(g.color)
	}
	color := g.color
	stack := append(g.stack[:0], frame{start, 0})
	defer func() { g.stack = stack[:0] }()
	color[start] = gray
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		nd, ok := g.node(f.code)
		if !ok {
			color[f.code] = black
			stack = stack[:len(stack)-1]
			continue
		}
		advanced := false
		for b := f.next; b < 4; b++ {
			w := nd.weight[b]
			if w < minWeight && int8(b) != nd.refOut {
				continue
			}
			if w == 0 {
				continue
			}
			succ := (f.code<<2 | uint64(b)) & g.mask
			f.next = b + 1
			switch color[succ] {
			case gray:
				return true
			case white:
				color[succ] = gray
				stack = append(stack, frame{succ, 0})
				advanced = true
			}
			if advanced {
				break
			}
		}
		if !advanced {
			color[f.code] = black
			stack = stack[:len(stack)-1]
		}
	}
	return false
}

// enumerate walks all traversable paths from the first reference k-mer
// to the last, emitting complete haplotype sequences.
func (g *graph) enumerate(ref genome.Seq, cfg Config) []genome.Seq {
	if len(ref) <= g.k {
		return nil
	}
	source := genome.KmerCode(ref, 0, g.k)
	sink := genome.KmerCode(ref, len(ref)-g.k, g.k)

	var haps []genome.Seq
	// Pre-size the path buffer to the enumeration cap so the recursive
	// appends below never reallocate; emitted haplotypes are cloned out.
	if need := cfg.MaxPathLen + g.k + 2; cap(g.pathBuf) < need {
		g.pathBuf = make(genome.Seq, 0, need)
	}
	prefix := append(g.pathBuf[:0], ref[:g.k]...)

	var walk func(code uint64, path genome.Seq)
	walk = func(code uint64, path genome.Seq) {
		if len(haps) >= cfg.MaxHaplotypes || len(path) > cfg.MaxPathLen {
			return
		}
		if code == sink && len(path) > g.k {
			haps = append(haps, path.Clone())
			// The sink k-mer may still extend (e.g. repeated terminal
			// k-mer) but Platypus stops haplotypes at the window end.
			return
		}
		nd, ok := g.node(code)
		if !ok {
			return
		}
		for b := 0; b < 4; b++ {
			w := nd.weight[b]
			if w == 0 {
				continue
			}
			if w < int32(cfg.MinEdgeWeight) && int8(b) != nd.refOut {
				continue
			}
			succ := (code<<2 | uint64(b)) & g.mask
			walk(succ, append(path, genome.Base(b)))
		}
	}
	walk(source, prefix)
	return haps
}

// Result reports one region assembly.
type Result struct {
	K            int // k-mer size that produced an acyclic graph
	Nodes, Edges int
	Haplotypes   []genome.Seq
	HashLookups  uint64
	CycleRetries int
}

// Assembler owns reusable De-Bruijn graph storage. One Assembler per
// worker: a worker looping over regions rebuilds into the same node
// slab, hash buckets, and traversal buffers instead of reallocating
// them per region. Not safe for concurrent use. Results are identical
// to the package-level AssembleRegion, including HashLookups.
type Assembler struct {
	g graph
}

// NewAssembler returns an empty Assembler; storage grows on first use.
func NewAssembler() *Assembler { return &Assembler{} }

// AssembleRegion builds the De-Bruijn graph for a region, escalating k
// until the graph is acyclic (or MaxK is reached), then enumerates
// candidate haplotypes.
func AssembleRegion(rg *Region, cfg Config) Result {
	return NewAssembler().AssembleRegion(rg, cfg)
}

// AssembleRegion assembles one region reusing a's graph storage.
func (a *Assembler) AssembleRegion(rg *Region, cfg Config) Result {
	var res Result
	g := &a.g
	for k := cfg.K; k <= cfg.MaxK; k += cfg.KStep {
		if len(rg.Ref) <= k {
			break
		}
		g.reset(k)
		g.addSeq(rg.Ref, true)
		for _, r := range rg.Reads {
			g.addSeq(r, false)
		}
		source := genome.KmerCode(rg.Ref, 0, k)
		cyclic := g.hasCycleFrom(source, int32(cfg.MinEdgeWeight))
		res.HashLookups += g.lookups
		if cyclic {
			res.CycleRetries++
			continue
		}
		res.K = k
		res.Nodes = len(g.slab)
		res.Edges = g.edges
		g.lookups = 0
		res.Haplotypes = g.enumerate(rg.Ref, cfg)
		res.HashLookups += g.lookups
		return res
	}
	// Cyclic at every k: fall back to the reference haplotype only,
	// as Platypus does when assembly fails.
	res.K = 0
	res.Haplotypes = []genome.Seq{rg.Ref.Clone()}
	return res
}

// KernelResult aggregates a dbg benchmark execution.
type KernelResult struct {
	Regions      int
	Haplotypes   int
	HashLookups  uint64
	CycleRetries int
	TaskStats    *perf.TaskStats
	Counters     perf.Counters
}

// RunKernelCtx assembles all regions with dynamic scheduling, under
// cooperative cancellation and with a fault trip-point per region.
func RunKernelCtx(ctx context.Context, regions []*Region, cfg Config, threads int) (KernelResult, error) {
	if threads <= 0 {
		threads = 1
	}
	assemblers := make([]*Assembler, threads)
	for i := range assemblers {
		assemblers[i] = NewAssembler()
	}
	type slot struct {
		haps, retries int
		lookups       uint64
	}
	slots := make([]slot, len(regions))
	// Region cost skews with repeat content (k-bumps and cycle
	// retries), so the scheduler is the probed parallel.dispatch choice:
	// shared counter or work stealing, pure policy either way.
	err := parallel.ForEachDispatchErr(ctx, len(regions), threads, func(tctx context.Context, w, i int) error {
		if err := faultinject.Point(tctx); err != nil {
			return err
		}
		r := assemblers[w].AssembleRegion(regions[i], cfg)
		slots[i] = slot{len(r.Haplotypes), r.CycleRetries, r.HashLookups}
		return nil
	})
	if err != nil {
		return KernelResult{}, err
	}
	res := KernelResult{Regions: len(regions), TaskStats: perf.NewTaskStats("hash lookups")}
	for i := range slots {
		res.Haplotypes += slots[i].haps
		res.HashLookups += slots[i].lookups
		res.CycleRetries += slots[i].retries
		res.TaskStats.Observe(float64(slots[i].lookups))
	}
	// Hash-table dominated: every lookup carries hashing arithmetic,
	// k-mer packing, probe loads and compare branches (Platypus'
	// assembly loop runs ~18 instructions per lookup).
	res.Counters.Add(perf.Load, res.HashLookups*5)
	res.Counters.Add(perf.IntALU, res.HashLookups*9)
	res.Counters.Add(perf.Store, res.HashLookups)
	res.Counters.Add(perf.Branch, res.HashLookups*3)
	return res, nil
}
