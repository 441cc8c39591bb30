package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/nnbase"
	"repro/internal/nnvariant"
)

// TestNNAllocBound: the two network kernels run on their workers'
// arenas, so a run allocates its answers, one arena per worker and
// little besides. One Small run of each, at 1 and at 2 threads, stays
// within the answers, twice each worker's arena (a slot a later, larger
// task asks more of is regrown), and 256 KiB for the loop's own
// tallies and statistics. A tensor allocated per layer would not: the
// layers' outputs of one nn-base chunk alone are over a megabyte, and
// nn-variant runs its network once per candidate.
func TestNNAllocBound(t *testing.T) {
	const slack = 256 << 10
	const f32 = 4 // bytes per float32

	b, _ := ByName("nn-base")
	b.Prepare(Small, 42)
	base := b.(*bench[nnbaseData]).data
	// A worker's arena holds one read's normalized signal and one
	// chunk's tensors: the stem's, each block's depthwise and pointwise
	// outputs, and the head's.
	longest := 0
	for _, r := range base.reads {
		longest = max(longest, len(r.Signal))
	}
	m := base.model
	rows, ch := m.Stem.OutLen(min(nnbase.ChunkSize, longest)), len(m.Stem.B)
	baseArena := f32 * (longest + rows*ch*(1+2*len(m.Blocks)) + rows*nnbase.NumClasses)
	// The called reads grow by appending: under four bytes a base.
	called := 4 * int(mustRun(b, 1).Extra["bases"])
	requireAllocBound(t, b, func(threads int) int { return called + threads*2*baseArena + slack })
	b.Release()

	b, _ = ByName("nn-variant")
	b.Prepare(Small, 42)
	variant := b.(*bench[nnvariantData]).data
	// A worker's arena holds one candidate's network: its input, each
	// BiLSTM layer's two directions (state, gates and output) and
	// concatenation, the shared dense layer and the four heads. Its
	// answers are the calls of its largest task.
	H, P := variant.model.Hidden, nnvariant.Positions
	variantArena := f32 * (P*nnvariant.Features + 2*(2*(6*H+P*H)+P*2*H) + len(variant.model.Shared.B) +
		nnvariant.GenotypeClasses + nnvariant.ZygosityClasses + 2*nnvariant.IndelClasses)
	most := 0
	for _, task := range variant.tasks {
		most = max(most, len(task.Candidates))
	}
	calls := 2 * most * int(unsafe.Sizeof(nnvariant.Call{}))
	requireAllocBound(t, b, func(threads int) int { return threads*(2*variantArena+calls) + slack })
	b.Release()
}

// requireAllocBound runs b once at 1 and at 2 threads and fails when a
// run allocates more than bound(threads) bytes.
func requireAllocBound(t *testing.T, b Benchmark, bound func(threads int) int) {
	t.Helper()
	name := b.Info().Name
	for _, threads := range []int{1, 2} {
		limit := uint64(bound(threads))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mustRun(b, threads)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		if got > limit {
			t.Errorf("%s, %d threads: a run allocated %d bytes, bound %d", name, threads, got, limit)
		}
		t.Logf("%s, %d threads: %d bytes, bound %d", name, threads, got, limit)
	}
}
