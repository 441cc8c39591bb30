package core

import (
	"context"

	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/scratch"
)

// taskLoop is a kernel whose Table III task is one dataset element,
// bound to its dataset: its timed run, and the one-goroutine run of
// single tasks, folded into answer digests, that a shard executor
// serves.
type taskLoop interface {
	run(ctx context.Context, threads int) (RunStats, error)
	executor() (n int, run func(task int) (dig, ops uint64))
}

// perTask declares such a kernel over its dataset D, per-worker state
// W and per-task result R; its with method is the kernelDef's loop.
// The kernel package keeps only the per-task compute, which task calls;
// the one task loop (each) is here, so every kernel that declares a
// perTask runs the paper's dynamic loop the same way. phmm declares
// task and digest only: its run keeps its own loop, which splits
// regions.
type perTask[D, W, R any] struct {
	data D             // the dataset with binds
	n    func(d D) int // the number of tasks in d
	// worker makes worker w's state: an arena from the run's pool, or
	// a fresh graph or assembler. nil leaves W zero.
	worker func(pool *scratch.Pool, w int) W
	// task runs task i on worker state w. R is consumed on the worker
	// before its next task, so R may alias w.
	task func(d D, w W, i int) R
	// digest folds the task's complete answer into a digest and names
	// its work; only the shard executor and tests call it, never the
	// timed run.
	digest func(r R) (dig, ops uint64)

	// The timed run keeps one tally per task and folds them in task
	// order: TaskStats observes each work, Extra[extra[k]] is the sum of
	// sums[k], and counters models the op mix from the totals.
	chunked  bool // pull chunkFor's chunk of tasks, not one: bsw's sub-millisecond alignments
	unit     string
	extra    []string
	tally    func(d D, i int, r R) tally
	counters func(total tally) perf.Counters
}

// tally is one task's share of a run's statistics.
type tally struct {
	work uint64   // the task's TaskStats sample, in the kernel's unit
	sums [3]int64 // the Extra values, in perTask.extra order
}

// with binds a copy of p to dataset d.
func (p perTask[D, W, R]) with(d D) taskLoop {
	p.data = d
	return &p
}

// each is the one task loop: it clamps the thread count, hands each
// worker its state, and runs every task under a fault trip-point,
// passing task i's result to slot(i, r) on the worker that ran it.
func (p *perTask[D, W, R]) each(ctx context.Context, threads int, slot func(i int, r R)) error {
	if threads <= 0 {
		threads = 1
	}
	workers := make([]W, threads)
	if p.worker != nil {
		pool := scratch.PoolFrom(ctx) // nil pool hands out fresh arenas
		for w := range workers {
			workers[w] = p.worker(pool, w)
		}
	}
	forEach := parallel.ForEachCtxErr
	if p.chunked {
		forEach = parallel.ForEachChunkedCtxErr
	}
	return forEach(ctx, p.n(p.data), threads, func(tctx context.Context, w, i int) error {
		if err := faultinject.Point(tctx); err != nil {
			return err
		}
		slot(i, p.task(p.data, workers[w], i))
		return nil
	})
}

func (p *perTask[D, W, R]) run(ctx context.Context, threads int) (RunStats, error) {
	tallies := make([]tally, p.n(p.data))
	if err := p.each(ctx, threads, func(i int, r R) { tallies[i] = p.tally(p.data, i, r) }); err != nil {
		return RunStats{}, err
	}
	var total tally
	ts := perf.NewTaskStats(p.unit)
	for _, t := range tallies {
		total.work += t.work
		for k := range total.sums {
			total.sums[k] += t.sums[k]
		}
		ts.Observe(float64(t.work))
	}
	extra := make(map[string]float64, len(p.extra))
	for k, name := range p.extra {
		extra[name] = float64(total.sums[k])
	}
	return RunStats{Counters: p.counters(total), TaskStats: ts, Extra: extra}, nil
}

// executor serves one goroutine, so it holds one worker's state.
func (p *perTask[D, W, R]) executor() (int, func(task int) (uint64, uint64)) {
	var w W
	if p.worker != nil {
		w = p.worker(nil, 0)
	}
	return p.n(p.data), func(task int) (uint64, uint64) { return p.digest(p.task(p.data, w, task)) }
}

// counted is a task entry point's answer with the work count it
// returns beside it.
type counted[A any] struct {
	answer A
	work   uint64
}
