package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bsw"
	"repro/internal/chain"
	"repro/internal/dbg"
	"repro/internal/genome"
	"repro/internal/phmm"
	"repro/internal/pileup"
	"repro/internal/poa"
	"repro/internal/scratch"
	"repro/internal/shard"
)

// Shard executors: the fabric-facing view of the kernels. Each
// executor prepares the same deterministic dataset as the matching
// Benchmark (same generators, same seed discipline) and exposes it as
// a dense task range whose per-task outputs are folded into 64-bit
// digests. The digest must cover the kernel's complete semantic output
// — scores, coordinates, consensus bases, counts, likelihood bits —
// because the distributed differential tests assert digest-vector
// equality against a single-process run; a digest that skipped a field
// would let a divergence hide.
//
// RunTask calls the same per-task entry point the in-process suite
// runs (bsw.AlignInto, poa.ConsensusInto, Assembler.AssembleRegion,
// phmm.EvaluateRegionInto, ...) with reusable state the executor owns,
// so a shard costs what the kernel costs. The allocating reference
// functions are the kernel packages' differential twins and are not
// called here. Each executor serves one goroutine: a worker's task
// loop, or LocalDigests.
//
// Only the task-granular kernels are shardable: bsw, chain, spoa,
// pileup, phmm, and dbg all decompose into independent tasks with no
// cross-task state. The remaining kernels (fmi's shared index, grm's
// matrix tiles, the NN kernels' batched models) stay on the in-process
// path; RunSuite falls back transparently for them.

// Task digests use the fabric's fold (shard.FoldWord from
// shard.DigestSeed), the same one the job fingerprint uses.
func foldInt(h uint64, v int) uint64       { return shard.FoldWord(h, uint64(int64(v))) }
func foldFloat(h uint64, f float64) uint64 { return shard.FoldWord(h, math.Float64bits(f)) }

// parseExecSize converts the wire's size string back to a Size.
func parseExecSize(s string) (Size, error) {
	size, err := ParseSize(s)
	if err != nil {
		return Small, fmt.Errorf("shard executor: %w", err)
	}
	return size, nil
}

// tasksAt answers Executor.Tasks from a kernel's task-count function
// (benchmarks.go), the same one its bench's Prepare sizes the dataset
// with.
func tasksAt(size string, count func(Size) int) (int, error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	return count(sz), nil
}

// ---- bsw ----

type bswExecutor struct {
	bench  bswBench
	params bsw.Params
	arena  *scratch.Arena
}

func (e *bswExecutor) Tasks(size string) (int, error) { return tasksAt(size, bswTasks) }

func (e *bswExecutor) Prepare(size string, seed int64) (int, error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	e.bench.Prepare(sz, seed)
	e.params, e.arena = bsw.DefaultParams(), scratch.New()
	return len(e.bench.pairs), nil
}

func (e *bswExecutor) RunTask(_ context.Context, task int) (uint64, uint64, error) {
	p := e.bench.pairs[task]
	r := bsw.AlignInto(p.Query, p.Target, e.params, e.arena)
	return bswDigest(r), r.CellUpdates, nil
}

func bswDigest(r bsw.Result) uint64 {
	h := shard.DigestSeed
	h = foldInt(h, r.Score)
	h = foldInt(h, r.QEnd)
	h = foldInt(h, r.TEnd)
	if r.ZDropped {
		h = shard.FoldWord(h, 1)
	}
	return h
}

// ---- chain ----

type chainExecutor struct {
	bench chainBench
	cfg   chain.Config
}

func (e *chainExecutor) Tasks(size string) (int, error) { return tasksAt(size, chainTasks) }

func (e *chainExecutor) Prepare(size string, seed int64) (int, error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	e.bench.Prepare(sz, seed)
	e.cfg = chain.DefaultConfig()
	return len(e.bench.tasks), nil
}

func (e *chainExecutor) RunTask(_ context.Context, task int) (uint64, uint64, error) {
	chains, comparisons := chain.ChainAnchors(e.bench.tasks[task].Anchors, e.cfg)
	h := shard.DigestSeed
	h = foldInt(h, len(chains))
	for _, c := range chains {
		h = foldFloat(h, c.Score)
		h = foldInt(h, len(c.Anchors))
		for _, a := range c.Anchors {
			h = foldInt(h, a)
		}
	}
	return h, comparisons, nil
}

// ---- spoa ----

type poaExecutor struct {
	bench  poaBench
	params poa.Params
	graph  *poa.Graph
}

func (e *poaExecutor) Tasks(size string) (int, error) { return tasksAt(size, poaTasks) }

func (e *poaExecutor) Prepare(size string, seed int64) (int, error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	e.bench.Prepare(sz, seed)
	e.params, e.graph = poa.DefaultParams(), poa.New()
	return len(e.bench.windows), nil
}

func (e *poaExecutor) RunTask(_ context.Context, task int) (uint64, uint64, error) {
	consensus, cells := poa.ConsensusInto(e.bench.windows[task], e.params, e.graph)
	return poaDigest(consensus), cells, nil
}

func poaDigest(consensus genome.Seq) uint64 {
	h := foldInt(shard.DigestSeed, len(consensus))
	return shard.FoldBytes(h, []byte(consensus))
}

// ---- pileup ----

type pileupExecutor struct {
	bench pileupBench
}

func (e *pileupExecutor) Tasks(size string) (int, error) { return tasksAt(size, pileupTasks) }

func (e *pileupExecutor) Prepare(size string, seed int64) (int, error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	e.bench.Prepare(sz, seed)
	return len(e.bench.regions), nil
}

func (e *pileupExecutor) RunTask(_ context.Context, task int) (uint64, uint64, error) {
	counts, lookups := pileup.CountRegion(e.bench.regions[task])
	h := shard.DigestSeed
	h = foldInt(h, len(counts))
	for i := range counts {
		c := &counts[i]
		for s := 0; s < 2; s++ {
			for b := 0; b < 4; b++ {
				h = shard.FoldWord(h, uint64(c.Base[s][b]))
			}
			h = shard.FoldWord(h, uint64(c.Ins[s]))
			h = shard.FoldWord(h, uint64(c.Del[s]))
		}
	}
	return h, uint64(lookups), nil
}

// ---- phmm ----

type phmmExecutor struct {
	bench   phmmBench
	scratch *phmm.Scratch
}

func (e *phmmExecutor) Tasks(size string) (int, error) { return tasksAt(size, phmmTasks) }

func (e *phmmExecutor) Prepare(size string, seed int64) (int, error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	e.bench.Prepare(sz, seed)
	e.scratch = phmm.NewScratch()
	return len(e.bench.regions), nil
}

func (e *phmmExecutor) RunTask(_ context.Context, task int) (uint64, uint64, error) {
	rr := phmm.EvaluateRegionInto(e.bench.regions[task], e.scratch) // rr's slices are the scratch's until the next call
	h := shard.DigestSeed
	for _, b := range rr.BestHap {
		h = foldInt(h, b)
	}
	for _, l := range rr.Likelihoods {
		h = foldFloat(h, l)
	}
	return h, rr.CellUpdates, nil
}

// ---- dbg ----

type dbgExecutor struct {
	bench dbgBench
	cfg   dbg.Config
	asm   *dbg.Assembler
}

func (e *dbgExecutor) Tasks(size string) (int, error) { return tasksAt(size, dbgTasks) }

func (e *dbgExecutor) Prepare(size string, seed int64) (int, error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	e.bench.Prepare(sz, seed)
	e.cfg, e.asm = dbg.DefaultConfig(), dbg.NewAssembler()
	return len(e.bench.regions), nil
}

func (e *dbgExecutor) RunTask(_ context.Context, task int) (uint64, uint64, error) {
	r := e.asm.AssembleRegion(e.bench.regions[task], e.cfg)
	return dbgDigest(r), r.HashLookups, nil
}

func dbgDigest(r dbg.Result) uint64 {
	h := shard.DigestSeed
	h = foldInt(h, r.K)
	h = foldInt(h, r.Nodes)
	h = foldInt(h, r.Edges)
	h = foldInt(h, r.CycleRetries)
	h = foldInt(h, len(r.Haplotypes))
	for _, hap := range r.Haplotypes {
		h = foldInt(h, len(hap))
		h = shard.FoldBytes(h, []byte(hap))
	}
	return h
}

func init() {
	shard.RegisterExecutor("bsw", func() shard.Executor { return &bswExecutor{} })
	shard.RegisterExecutor("chain", func() shard.Executor { return &chainExecutor{} })
	shard.RegisterExecutor("spoa", func() shard.Executor { return &poaExecutor{} })
	shard.RegisterExecutor("pileup", func() shard.Executor { return &pileupExecutor{} })
	shard.RegisterExecutor("phmm", func() shard.Executor { return &phmmExecutor{} })
	shard.RegisterExecutor("dbg", func() shard.Executor { return &dbgExecutor{} })
}

// LocalDigests runs every task of a kernel in the current process —
// the reference execution the distributed differential tests and the
// -dist-verify flag compare a fabric run against.
func LocalDigests(ctx context.Context, kernel, size string, seed int64) ([]uint64, uint64, error) {
	ex, err := shard.NewExecutor(kernel)
	if err != nil {
		return nil, 0, err
	}
	n, err := ex.Prepare(size, seed)
	if err != nil {
		return nil, 0, err
	}
	digests := make([]uint64, n)
	var ops uint64
	for t := 0; t < n; t++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		d, o, err := ex.RunTask(ctx, t)
		if err != nil {
			return nil, 0, fmt.Errorf("local %s task %d: %w", kernel, t, err)
		}
		digests[t] = d
		ops += o
	}
	return digests, ops, nil
}
