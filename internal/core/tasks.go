package core

import (
	"context"

	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/perf"
	"repro/internal/scratch"
)

// taskLoop is a kernel whose Table III work splits into tasks, bound
// to its dataset: its timed run, and the one-goroutine run of single
// tasks, folded into answer digests, that a shard executor serves.
type taskLoop interface {
	run(ctx context.Context, threads int) (RunStats, error)
	executor() (n int, run func(task int) (dig, ops uint64))
}

// perTask declares such a kernel over its dataset D, per-worker state
// W and per-task result R; its with method is the kernelDef's loop.
// A task is usually one dataset element; fmi's is a fixed chunk of
// reads, grm's one block of the output matrix and phmm's one equal-cell
// piece of its regions' reads. The kernel package keeps only the
// per-task compute, which task calls; the one task loop (each) is here,
// so every kernel that declares a perTask runs the paper's dynamic loop
// the same way.
type perTask[D, W, R any] struct {
	data D             // the dataset with binds
	n    func(d D) int // the number of tasks in d
	// worker makes worker w's state over d: an arena from the run's
	// pool, a fresh graph or assembler, or a search engine over d's
	// index. nil leaves W zero.
	worker func(d D, pool *scratch.Pool, w int) W
	// task runs task i on worker state w. R is consumed on the worker
	// before its next task, so R may alias w.
	task func(d D, w W, i int) R
	// prep, set by a kernel whose tasks regroup its dataset, is a first
	// round of prepTasks(d) tasks the loop runs on the same workers, all
	// of them before any task: kmer-cnt bins every chunk of reads'
	// k-mers, then counts one partition per task. Only each runs it, so
	// a kernel that sets prep has no shard executor (no tasks entry).
	prep      func(d D, w W, j int)
	prepTasks func(d D) int
	// digest folds the task's complete answer into a digest and names
	// its work; only the shard executor and tests call it, never the
	// timed run.
	digest func(r R) (dig, ops uint64)

	// The timed run keeps one tally per task and folds them in task
	// order: TaskStats observes each work (or the samples below),
	// Extra[extra[k]] is the sum of sums[k], and counters models the op
	// mix from the totals.
	chunked  bool // pull chunkFor's chunk of tasks, not one: bsw's sub-millisecond alignments
	unit     string
	extra    []string
	tally    func(d D, i int, r R) tally
	counters func(total tally) perf.Counters
	// samples, set by a kernel whose TaskStats sample is not its task,
	// makes the samples; each tally then adds into them from its first
	// on, so several tasks may share a sample. They start at zero, or,
	// for kmer-cnt, whose sample is a read and whose task a partition of
	// every read's k-mers, at each read's k-mer count, its tallies
	// adding nothing.
	samples func(d D) []uint64
}

// tally is one task's share of a run's statistics.
type tally struct {
	work uint64   // the task's work, in the kernel's unit: its TaskStats sample unless perTask.samples
	sums [3]int64 // the Extra values, in perTask.extra order; a sum past extra's names feeds counters only
	// Under perTask.samples: works, when set, add into samples first,
	// first+1, ...; otherwise work adds into sample first.
	first int
	works []uint64
}

// with binds a copy of p to dataset d.
func (p perTask[D, W, R]) with(d D) taskLoop {
	p.data = d
	return &p
}

// each is the one task loop: it clamps the thread count, hands each
// worker its state, and runs every prep task, then every task, under a
// fault trip-point, passing task i's result to slot(i, r) on the
// worker that ran it.
func (p *perTask[D, W, R]) each(ctx context.Context, threads int, slot func(i int, r R)) error {
	if threads <= 0 {
		threads = 1
	}
	workers := make([]W, threads)
	if p.worker != nil {
		pool := scratch.PoolFrom(ctx) // nil pool hands out fresh arenas
		for w := range workers {
			workers[w] = p.worker(p.data, pool, w)
		}
	}
	forEach := parallel.ForEachCtxErr
	if p.chunked {
		forEach = parallel.ForEachChunkedCtxErr
	}
	round := func(n int, task func(w W, i int)) error {
		return forEach(ctx, n, threads, func(tctx context.Context, w, i int) error {
			if err := faultinject.Point(tctx); err != nil {
				return err
			}
			task(workers[w], i)
			return nil
		})
	}
	if p.prep != nil {
		if err := round(p.prepTasks(p.data), func(w W, j int) { p.prep(p.data, w, j) }); err != nil {
			return err
		}
	}
	return round(p.n(p.data), func(w W, i int) { slot(i, p.task(p.data, w, i)) })
}

func (p *perTask[D, W, R]) run(ctx context.Context, threads int) (RunStats, error) {
	tallies := make([]tally, p.n(p.data))
	if err := p.each(ctx, threads, func(i int, r R) { tallies[i] = p.tally(p.data, i, r) }); err != nil {
		return RunStats{}, err
	}
	var total tally
	ts := perf.NewTaskStats(p.unit)
	var samples []uint64
	if p.samples != nil {
		samples = p.samples(p.data)
	}
	for _, t := range tallies {
		total.work += t.work
		for k := range total.sums {
			total.sums[k] += t.sums[k]
		}
		switch {
		case samples == nil:
			ts.Observe(float64(t.work))
		case t.works == nil:
			samples[t.first] += t.work
		default:
			for k, w := range t.works {
				samples[t.first+k] += w
			}
		}
	}
	for _, w := range samples {
		ts.Observe(float64(w))
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
		w = p.worker(p.data, nil, 0)
	}
	return p.n(p.data), func(task int) (uint64, uint64) { return p.digest(p.task(p.data, w, task)) }
}

// counted is a task entry point's answer with the work count it
// returns beside it.
type counted[A any] struct {
	answer A
	work   uint64
}
