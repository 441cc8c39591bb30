package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/abea"
	"repro/internal/bsw"
	"repro/internal/dbg"
	"repro/internal/digest"
	"repro/internal/genome"
	"repro/internal/nnvariant"
	"repro/internal/shard"
)

// Shard executors: the fabric-facing view of the kernels table. An
// executor builds its dataset with the entry's own build — the one the
// kernel's Benchmark prepares with — and runs it through the entry's
// loop: the same task function the timed run calls, on state the
// executor owns, so a shard costs what the kernel costs. Each task's
// result is folded into a 64-bit digest that must cover the kernel's
// complete semantic output — scores, coordinates, consensus bases,
// counts, likelihood bits — because the distributed differential tests
// assert digest-vector equality against a single-process run; a digest
// that skipped a field would let a divergence hide. The allocating
// reference functions are the kernel packages' differential twins and
// are not called there. Each executor serves one goroutine: a worker's
// task loop, or LocalDigests.
//
// Only the kernels whose entry sets tasks are shardable: bsw, chain,
// spoa, pileup, phmm, and dbg all decompose into independent tasks with
// no cross-task state. The remaining kernels stay on the in-process
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

func (e *executor[D]) Prepare(size string, seed int64) (n int, err error) {
	sz, err := ParseSize(size) // the wire carries Size.String()
	if err != nil {
		return 0, err
	}
	n, e.run = e.def.loop(e.def.build(sz, seed)).executor()
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

// seqDigest folds one called sequence: a spoa consensus or an nn-base
// basecall.
func seqDigest(s genome.Seq) uint64 {
	h := foldInt(digest.Seed, len(s))
	return digest.Bytes(h, []byte(s))
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

func abeaDigest(r abea.Result) uint64 {
	h := digest.Word(digest.Seed, uint64(math.Float32bits(r.Score)))
	h = digest.Word(h, r.CellUpdates)
	var oob uint64
	if r.OutOfBand {
		oob = 1
	}
	return digest.Word(h, oob)
}

// callsDigest folds the float32 bits of a region's predictions: the
// four heads of each call in field order, each value low byte first.
func callsDigest(calls []nnvariant.Call) uint64 {
	h := digest.Seed
	var le [4]byte
	for i := range calls {
		c := &calls[i]
		for _, head := range [][]float32{c.Genotype[:], c.Zygosity[:], c.Indel1[:], c.Indel2[:]} {
			for _, v := range head {
				binary.LittleEndian.PutUint32(le[:], math.Float32bits(v))
				h = digest.Bytes(h, le[:])
			}
		}
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
