package parallel

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/perf"
)

// Work-stealing dispatch. The shared counter serializes every pull on
// one atomic cache line; fine for coarse tasks, but the line
// ping-pongs across cores and offers no locality. The deques source
// instead seeds each worker with a contiguous block of task indices in
// a private deque: the owner pops from its own deque with no
// cross-core traffic, and only workers that run dry touch anyone
// else's, stealing from the most loaded victim — so skewed workloads
// (poa windows vary ~10x in cell count) rebalance while uniform ones
// never contend at all.
//
// Deque discipline is the classic LIFO-pop/FIFO-steal split: the
// seeded block is conceptually pushed in descending index order, so
// the owner's LIFO pop walks its block in ascending order (cache-
// friendly, same order the sequential path uses) while a thief's FIFO
// steal takes the oldest-pushed — highest — indices from the far end,
// the work the owner would reach last. Thieves take half the victim's
// remaining range per steal, so a large imbalance settles in O(log n)
// steals instead of one task at a time. A mutex per deque is plenty:
// every kernel task here is microseconds to milliseconds of DP, so the
// uncontended lock is noise and the contended case is rare by design.
//
// Panic isolation, cancellation and observability are run's, so they
// match the shared counter exactly; run adds a parallel.steals counter
// when this source served it.

// stealDeque holds one worker's remaining seeded range [lo, hi).
// Owners pop lo; thieves split off the top half.
type stealDeque struct {
	mu sync.Mutex
	lo int
	hi int
	_  perf.CacheLinePad // keep neighbours' locks off this line
}

// pop takes the owner's next task (ascending order).
func (d *stealDeque) pop() (int, bool) {
	d.mu.Lock()
	if d.lo >= d.hi {
		d.mu.Unlock()
		return 0, false
	}
	i := d.lo
	d.lo++
	d.mu.Unlock()
	return i, true
}

// remaining reports how many tasks the deque still holds (victim
// selection reads this under the lock so -race stays clean).
func (d *stealDeque) remaining() int {
	d.mu.Lock()
	r := d.hi - d.lo
	d.mu.Unlock()
	return r
}

// steal splits off the top half of the remaining range (at least one
// task) for a thief to take home.
func (d *stealDeque) steal() (lo, hi int, ok bool) {
	d.mu.Lock()
	rem := d.hi - d.lo
	if rem <= 0 {
		d.mu.Unlock()
		return 0, 0, false
	}
	take := (rem + 1) / 2
	hi = d.hi
	lo = hi - take
	d.hi = lo
	d.mu.Unlock()
	return lo, hi, true
}

// refill installs a stolen range as the (empty) owner's new block.
func (d *stealDeque) refill(lo, hi int) {
	d.mu.Lock()
	d.lo, d.hi = lo, hi
	d.mu.Unlock()
}

// deques is the work-stealing source: one seeded deque per worker.
type deques struct {
	d      []stealDeque
	steals atomic.Int64
}

// newDeques seeds each worker's deque with a balanced contiguous block.
func newDeques(n, threads int) source {
	s := &deques{d: make([]stealDeque, threads)}
	for w := range s.d {
		s.d[w].lo = w * n / threads
		s.d[w].hi = (w + 1) * n / threads
	}
	return s
}

// next pops the worker's own deque, one task per pull; a worker that
// has run dry first takes home half of the most loaded victim's range.
func (s *deques) next(worker int) (lo, hi int, ok bool) {
	own := &s.d[worker]
	for {
		if i, ok := own.pop(); ok {
			return i, i + 1, true
		}
		victim, most := -1, 0
		for v := range s.d {
			if v == worker {
				continue
			}
			if rem := s.d[v].remaining(); rem > most {
				most = rem
				victim = v
			}
		}
		if victim < 0 {
			return 0, 0, false // every deque drained
		}
		lo, hi, ok := s.d[victim].steal()
		if !ok {
			continue // lost the race; rescan
		}
		own.refill(lo, hi)
		s.steals.Add(1)
	}
}

// ForEachStealingErr is run over the per-worker deques.
func ForEachStealingErr(ctx context.Context, n, threads int, fn func(ctx context.Context, worker, task int) error) error {
	return run(ctx, n, threads, newDeques, fn)
}
