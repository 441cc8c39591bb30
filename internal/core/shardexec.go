package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bsw"
	"repro/internal/chain"
	"repro/internal/dbg"
	"repro/internal/phmm"
	"repro/internal/pileup"
	"repro/internal/poa"
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

// ---- bsw ----

type bswExecutor struct {
	bench  bswBench
	params bsw.Params
}

func (e *bswExecutor) Prepare(size string, seed int64) (int, error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	e.bench.Prepare(sz, seed)
	e.params = bsw.DefaultParams()
	return len(e.bench.pairs), nil
}

func (e *bswExecutor) RunTask(_ context.Context, task int) (uint64, uint64, error) {
	p := e.bench.pairs[task]
	r := bsw.Align(p.Query, p.Target, e.params)
	h := shard.DigestSeed
	h = foldInt(h, r.Score)
	h = foldInt(h, r.QEnd)
	h = foldInt(h, r.TEnd)
	if r.ZDropped {
		h = shard.FoldWord(h, 1)
	}
	return h, r.CellUpdates, nil
}

// ---- chain ----

type chainExecutor struct {
	bench chainBench
	cfg   chain.Config
}

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
}

func (e *poaExecutor) Prepare(size string, seed int64) (int, error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	e.bench.Prepare(sz, seed)
	e.params = poa.DefaultParams()
	return len(e.bench.windows), nil
}

func (e *poaExecutor) RunTask(_ context.Context, task int) (uint64, uint64, error) {
	consensus, cells := poa.ConsensusOf(e.bench.windows[task], e.params)
	h := shard.DigestSeed
	h = foldInt(h, len(consensus))
	h = shard.FoldBytes(h, []byte(consensus))
	return h, cells, nil
}

// ---- pileup ----

type pileupExecutor struct {
	bench pileupBench
}

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
	bench phmmBench
}

func (e *phmmExecutor) Prepare(size string, seed int64) (int, error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	e.bench.Prepare(sz, seed)
	return len(e.bench.regions), nil
}

func (e *phmmExecutor) RunTask(_ context.Context, task int) (uint64, uint64, error) {
	rr := phmm.EvaluateRegion(e.bench.regions[task])
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
}

func (e *dbgExecutor) Prepare(size string, seed int64) (int, error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	e.bench.Prepare(sz, seed)
	e.cfg = dbg.DefaultConfig()
	return len(e.bench.regions), nil
}

func (e *dbgExecutor) RunTask(_ context.Context, task int) (uint64, uint64, error) {
	r := dbg.AssembleRegion(e.bench.regions[task], e.cfg)
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
	return h, r.HashLookups, nil
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
