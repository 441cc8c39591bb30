package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bsw"
	"repro/internal/chain"
	"repro/internal/dbg"
	"repro/internal/digest"
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

// Task digests use the same fold (digest.Word from digest.Seed) as
// the job fingerprint.
func foldInt(h uint64, v int) uint64       { return digest.Word(h, uint64(int64(v))) }
func foldFloat(h uint64, f float64) uint64 { return digest.Word(h, math.Float64bits(f)) }

// kernelExec is a kernel's entry in the fabric: its task count as a
// function of size alone (benchmarks.go — the same function its
// bench's Prepare sizes the dataset with, which is how the coordinator
// partitions a job without building it), and a prepare that builds the
// dataset plus the reusable state its tasks need and returns the
// number of tasks built and the per-task run.
type kernelExec struct {
	tasks   func(Size) int
	prepare func(size Size, seed int64) (n int, run func(task int) (dig, ops uint64))
}

// executor adapts a kernelExec to shard.Executor, holding the prepared
// run between calls.
type executor struct {
	kernelExec
	run func(task int) (dig, ops uint64)
}

// parseExecSize converts the wire's size string back to a Size.
func parseExecSize(s string) (Size, error) {
	size, err := ParseSize(s)
	if err != nil {
		return Small, fmt.Errorf("shard executor: %w", err)
	}
	return size, nil
}

func (e *executor) Tasks(size string) (int, error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	return e.tasks(sz), nil
}

func (e *executor) Prepare(size string, seed int64) (n int, err error) {
	sz, err := parseExecSize(size)
	if err != nil {
		return 0, err
	}
	n, e.run = e.prepare(sz, seed)
	return n, nil
}

func (e *executor) RunTask(_ context.Context, task int) (uint64, uint64, error) {
	d, ops := e.run(task)
	return d, ops, nil
}

var kernelExecs = map[string]kernelExec{
	"bsw": {bswTasks, func(size Size, seed int64) (int, func(int) (uint64, uint64)) {
		var b bswBench
		b.Prepare(size, seed)
		params, arena := bsw.DefaultParams(), scratch.New()
		return len(b.pairs), func(task int) (uint64, uint64) {
			p := b.pairs[task]
			r := bsw.AlignInto(p.Query, p.Target, params, arena)
			return bswDigest(r), r.CellUpdates
		}
	}},
	"chain": {chainTasks, func(size Size, seed int64) (int, func(int) (uint64, uint64)) {
		var b chainBench
		b.Prepare(size, seed)
		cfg := chain.DefaultConfig()
		return len(b.tasks), func(task int) (uint64, uint64) {
			chains, comparisons := chain.ChainAnchors(b.tasks[task].Anchors, cfg)
			h := digest.Seed
			h = foldInt(h, len(chains))
			for _, c := range chains {
				h = foldFloat(h, c.Score)
				h = foldInt(h, len(c.Anchors))
				for _, a := range c.Anchors {
					h = foldInt(h, a)
				}
			}
			return h, comparisons
		}
	}},
	"spoa": {poaTasks, func(size Size, seed int64) (int, func(int) (uint64, uint64)) {
		var b poaBench
		b.Prepare(size, seed)
		params, graph := poa.DefaultParams(), poa.New()
		return len(b.windows), func(task int) (uint64, uint64) {
			consensus, cells := poa.ConsensusInto(b.windows[task], params, graph)
			return poaDigest(consensus), cells
		}
	}},
	"pileup": {pileupTasks, func(size Size, seed int64) (int, func(int) (uint64, uint64)) {
		var b pileupBench
		b.Prepare(size, seed)
		return len(b.regions), func(task int) (uint64, uint64) {
			counts, lookups := pileup.CountRegion(b.regions[task])
			h := digest.Seed
			h = foldInt(h, len(counts))
			for i := range counts {
				c := &counts[i]
				for s := 0; s < 2; s++ {
					for base := 0; base < 4; base++ {
						h = digest.Word(h, uint64(c.Base[s][base]))
					}
					h = digest.Word(h, uint64(c.Ins[s]))
					h = digest.Word(h, uint64(c.Del[s]))
				}
			}
			return h, uint64(lookups)
		}
	}},
	"phmm": {phmmTasks, func(size Size, seed int64) (int, func(int) (uint64, uint64)) {
		var b phmmBench
		b.Prepare(size, seed)
		sc := phmm.NewScratch()
		return len(b.regions), func(task int) (uint64, uint64) {
			rr := phmm.EvaluateRegionInto(b.regions[task], sc) // rr's slices are sc's until the next call
			h := digest.Seed
			for _, best := range rr.BestHap {
				h = foldInt(h, best)
			}
			for _, l := range rr.Likelihoods {
				h = foldFloat(h, l)
			}
			return h, rr.CellUpdates
		}
	}},
	"dbg": {dbgTasks, func(size Size, seed int64) (int, func(int) (uint64, uint64)) {
		var b dbgBench
		b.Prepare(size, seed)
		cfg, asm := dbg.DefaultConfig(), dbg.NewAssembler()
		return len(b.regions), func(task int) (uint64, uint64) {
			r := asm.AssembleRegion(b.regions[task], cfg)
			return dbgDigest(r), r.HashLookups
		}
	}},
}

func bswDigest(r bsw.Result) uint64 {
	h := digest.Seed
	h = foldInt(h, r.Score)
	h = foldInt(h, r.QEnd)
	h = foldInt(h, r.TEnd)
	if r.ZDropped {
		h = digest.Word(h, 1)
	}
	return h
}

func poaDigest(consensus genome.Seq) uint64 {
	h := foldInt(digest.Seed, len(consensus))
	return digest.Bytes(h, []byte(consensus))
}

func dbgDigest(r dbg.Result) uint64 {
	h := digest.Seed
	h = foldInt(h, r.K)
	h = foldInt(h, r.Nodes)
	h = foldInt(h, r.Edges)
	h = foldInt(h, r.CycleRetries)
	h = foldInt(h, len(r.Haplotypes))
	for _, hap := range r.Haplotypes {
		h = foldInt(h, len(hap))
		h = digest.Bytes(h, []byte(hap))
	}
	return h
}

func init() {
	for kernel, k := range kernelExecs {
		shard.RegisterExecutor(kernel, func() shard.Executor { return &executor{kernelExec: k} })
	}
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
