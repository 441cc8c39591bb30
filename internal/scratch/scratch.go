// Package scratch provides per-worker reusable scratch arenas for the
// suite's hot task loops. The original GenomicsBench kernels allocate
// their DP rows and probe buffers once per thread and reuse them for
// every task; the pure-Go ports initially allocated per call, paying
// allocator and GC costs the paper's kernels never did. An Arena makes
// the original discipline expressible: each scheduler worker owns one
// Arena, calls Reset at the top of every task, and draws grow-only
// typed buffers from it. Steady state (buffer sizes stable across
// tasks) performs zero heap allocations per task. bsw and abea draw
// their DP bands from an Arena, and the two network kernels, nn-base
// and nn-variant, every activation tensor of their networks (package
// nn's layers take the arena); phmm keeps its named scratch struct in
// a Pool's WorkerState.
//
// An Arena is NOT safe for concurrent use; the intended pattern is one
// Arena per parallel worker, handed out as that worker's state by the
// suite's task loop (core's perTask.each).
package scratch

// pool hands out grow-only buffers of one element type in call order.
// Reset rewinds the cursor so the next task reuses the same backing
// arrays; a request larger than a slot's capacity regrows just that
// slot.
type pool[T any] struct {
	bufs [][]T
	next int
}

func (p *pool[T]) get(n int) []T {
	if p.next < len(p.bufs) {
		b := p.bufs[p.next]
		if cap(b) < n {
			b = make([]T, n)
			p.bufs[p.next] = b
		}
		p.next++
		return b[:n]
	}
	b := make([]T, n)
	p.bufs = append(p.bufs, b)
	p.next++
	return b
}

// Arena hands out reusable typed buffers. The zero value is ready to
// use. Buffers returned by the getters contain arbitrary stale data;
// callers must initialize every element they read (DP cores already do,
// since they write row 0 / column 0 explicitly).
//
// Buffers stay valid until the Arena is Reset, or rewound to a Mark
// taken before them; two successive calls to the same getter return
// distinct buffers.
type Arena struct {
	ints pool[int]
	i16  pool[int16]
	i32  pool[int32]
	u64  pool[uint64]
	f32  pool[float32]
}

// New returns an empty Arena. Equivalent to new(Arena); provided for
// symmetry with the rest of the suite's constructors.
func New() *Arena { return &Arena{} }

// Reset rewinds the arena so subsequent getters reuse the buffers
// handed out since the previous Reset. Call it at the top of each task.
func (a *Arena) Reset() { a.Rewind(Mark{}) }

// Mark is an arena's cursor, one position per element type.
type Mark [5]int

// Mark returns the arena's cursor, for a later Rewind.
func (a *Arena) Mark() Mark {
	return Mark{a.ints.next, a.i16.next, a.i32.next, a.u64.next, a.f32.next}
}

// Rewind returns the arena to m, a Mark taken since the last Reset:
// the buffers handed out after it are invalidated and reused by the
// next getters, in call order, while those handed out before it stay
// valid. A task loop's inner round (nn-base's signal chunk) rewinds to
// a mark taken at its top, so each round reuses the previous one's
// buffers.
func (a *Arena) Rewind(m Mark) {
	a.ints.next, a.i16.next, a.i32.next = m[0], m[1], m[2]
	a.u64.next, a.f32.next = m[3], m[4]
}

// Ints returns a reusable []int of length n (contents unspecified).
func (a *Arena) Ints(n int) []int { return a.ints.get(n) }

// Int16s returns a reusable []int16 of length n (contents unspecified).
func (a *Arena) Int16s(n int) []int16 { return a.i16.get(n) }

// Int32s returns a reusable []int32 of length n (contents unspecified).
func (a *Arena) Int32s(n int) []int32 { return a.i32.get(n) }

// Uint64s returns a reusable []uint64 of length n (contents unspecified).
func (a *Arena) Uint64s(n int) []uint64 { return a.u64.get(n) }

// Float32s returns a reusable []float32 of length n (contents unspecified).
func (a *Arena) Float32s(n int) []float32 { return a.f32.get(n) }

// Grow returns a slice of length n backed by buf's array when it is
// large enough, allocating a fresh array only when capacity is
// exceeded. It is the free-standing grow-only helper for kernels whose
// scratch is a named struct of typed slices rather than an Arena:
//
//	s.prev = scratch.Grow(s.prev, W)
//
// Contents are unspecified; callers must initialize what they read.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}
