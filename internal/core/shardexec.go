package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/bsw"
	"repro/internal/dbg"
	"repro/internal/digest"
	"repro/internal/genome"
	"repro/internal/shard"
)

// Shard executors: the fabric-facing view of the kernels table. An
// executor builds its dataset with the entry's own build — the one the
// kernel's Benchmark prepares with — and exposes it through the
// entry's digests as a dense task range whose per-task outputs are
// folded into 64-bit digests. The digest must cover the kernel's
// complete semantic output — scores, coordinates, consensus bases,
// counts, likelihood bits — because the distributed differential tests
// assert digest-vector equality against a single-process run; a digest
// that skipped a field would let a divergence hide.
//
// A digests function calls the same per-task entry point the
// in-process suite runs (bsw.AlignInto, poa.ConsensusInto,
// Assembler.AssembleRegion, phmm.EvaluateRegionInto, ...) with
// reusable state it owns, so a shard costs what the kernel costs. The
// allocating reference functions are the kernel packages' differential
// twins and are not called there. Each executor serves one goroutine:
// a worker's task loop, or LocalDigests.
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

// executor is the shard.Executor of a shardable kernelDef, holding the
// prepared per-task run between calls. (It cannot be the entry's bench:
// the two interfaces give Prepare different signatures.)
type executor[D any] struct {
	def *kernelDef[D]
	run func(task int) (dig, ops uint64)
}

func (e *executor[D]) Tasks(size string) (int, error) {
	sz, err := ParseSize(size) // the wire carries Size.String()
	if err != nil {
		return 0, err
	}
	return e.def.tasks(sz), nil
}

func (e *executor[D]) Prepare(size string, seed int64) (n int, err error) {
	sz, err := ParseSize(size)
	if err != nil {
		return 0, err
	}
	n, e.run = e.def.digests(e.def.build(sz, seed))
	return n, nil
}

func (e *executor[D]) RunTask(_ context.Context, task int) (uint64, uint64, error) {
	d, ops := e.run(task)
	return d, ops, nil
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
	for _, k := range kernels {
		if k.newExecutor != nil {
			shard.RegisterExecutor(k.info.Name, k.newExecutor)
		}
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
