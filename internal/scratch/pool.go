package scratch

import "context"

// Pool is a set of per-worker Arenas that outlives a single kernel
// execution. A caller that runs the same pass again reuses one Pool,
// so each pass draws the warm arenas the previous one grew instead of
// re-paying every band and table allocation from a cold heap. Workers
// are keyed by the stable worker index the schedulers
// (parallel.ForEachCtxErr) already hand their task bodies.
//
// Only scenario runs (scenario.Options.Pool, which the benchmark's
// scenario workloads keep across their passes) and tests reuse a Pool.
// The benchmark's kernel workloads install a fresh Pool on every
// Kernel.Run, and a kernel run with no Pool in its context gets fresh
// arenas, so no kernel pass draws arenas an earlier pass warmed.
//
// Like Arena, a Pool is not safe for concurrent use: kernels fetch
// worker arenas in their sequential worker-init loop, and a caller
// runs one pass at a time, so accesses are naturally serialized.
type Pool struct {
	arenas []*Arena
	state  []any
}

// NewPool returns an empty Pool.
func NewPool() *Pool { return &Pool{} }

// Worker returns worker w's Arena, creating it on first use. A nil
// Pool (no pool installed in the context) degrades to a fresh Arena
// per call — exactly the kernels' previous per-execution behaviour.
func (p *Pool) Worker(w int) *Arena {
	if p == nil {
		return New()
	}
	for len(p.arenas) <= w {
		p.arenas = append(p.arenas, nil)
	}
	if p.arenas[w] == nil {
		p.arenas[w] = New()
	}
	return p.arenas[w]
}

// WorkerState returns worker w's kernel-specific scratch slot,
// creating it with mk on first use. It serves kernels whose scratch is
// a named struct rather than an Arena (phmm.Scratch); the caller type-
// asserts the result. A nil Pool returns mk() every call.
func (p *Pool) WorkerState(w int, mk func() any) any {
	if p == nil {
		return mk()
	}
	for len(p.state) <= w {
		p.state = append(p.state, nil)
	}
	if p.state[w] == nil {
		p.state[w] = mk()
	}
	return p.state[w]
}

type poolKey struct{}

// WithPool returns a context carrying p for kernels run beneath it.
func WithPool(ctx context.Context, p *Pool) context.Context {
	return context.WithValue(ctx, poolKey{}, p)
}

// PoolFrom extracts the installed Pool, or nil when the caller did not
// set one up (nil is a valid receiver for Worker and WorkerState).
func PoolFrom(ctx context.Context) *Pool {
	p, _ := ctx.Value(poolKey{}).(*Pool)
	return p
}
