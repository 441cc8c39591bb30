// Package prefetch exposes the CPU's software data-prefetch
// instruction behind a portable no-op-able API. The memory-bound
// kernels (fmindex SMEM search, kmercnt hash probing) know their next
// irregular addresses well before they consume the data; issuing a
// prefetch one batch rotation ahead lets the memory system overlap
// misses that a serial dependent walk would pay one at a time — the
// software-prefetch batching BWA-MEM2 applies to the same FM-index
// kernel (Vasimuddin et al., IPDPS 2019).
//
// Ptr compiles to PREFETCHT0 on amd64 (prefetch_amd64.s, following
// the phmm row_amd64.go dispatch pattern); on arm64 and everywhere
// else it is a no-op, so callers can prefetch unconditionally. A
// prefetch is a hint: it never faults, never changes architectural
// state, and costs one call.
package prefetch

import (
	"math/rand"
	"sync"
	"unsafe"

	"repro/internal/tuning"
)

// BestWidth measures the host's profitable software-prefetch window:
// it times a W-way interleaved dependent pointer chase — each lane
// walking its own stretch of a random cycle through a table larger
// than the L2, the next hop prefetched one rotation before it is
// loaded — for every candidate width and returns the fastest. This is
// the structural question every lock-step batching loop asks ("how
// many in-flight states before the next rotation's prefetches have
// covered the miss latency?"), so the fmindex batch scheduler and the
// kmercnt probe waves both resolve their widths through it. The probe
// table is built once per process (a few milliseconds); resolved
// tunables are cached on disk by internal/tuning, so steady-state
// gbench processes skip the probe entirely.
func BestWidth(candidates []int) int {
	if len(candidates) == 0 {
		return 1
	}
	table := probeTable()
	best, bestNs := candidates[0], 0.0
	for _, w := range candidates {
		if w < 1 {
			w = 1
		}
		ns := chaseNs(table, w)
		if bestNs == 0 || ns < bestNs {
			best, bestNs = w, ns
		}
	}
	return best
}

// probeTableSize is the chase-table length: 1<<20 uint32 hops = 4 MiB,
// larger than any common L2, small enough to build in milliseconds.
const probeTableSize = 1 << 20

var (
	probeOnce  sync.Once
	probeCycle []uint32
)

// probeTable builds one shared random single cycle: table[i] is the
// hop after i and following it visits every slot (a Sattolo shuffle),
// so a chase never short-circuits into a small cache-resident loop.
func probeTable() []uint32 {
	probeOnce.Do(func() {
		rng := rand.New(rand.NewSource(0x9e3779b9))
		perm := make([]uint32, probeTableSize)
		for i := range perm {
			perm[i] = uint32(i)
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i) // Sattolo: j < i keeps the permutation one cycle
			perm[i], perm[j] = perm[j], perm[i]
		}
		next := make([]uint32, probeTableSize)
		for i := 0; i < len(perm); i++ {
			next[perm[i]] = perm[(i+1)%len(perm)]
		}
		probeCycle = next
	})
	return probeCycle
}

// chaseSteps is the per-measurement hop count per lane; sized so one
// timed batch lands in the tens of microseconds.
const chaseSteps = 2048

// maxChaseWidth bounds the lane array so the chase state itself stays
// in registers/L1 and never becomes the thing being measured.
const maxChaseWidth = 64

// chaseNs returns the fastest observed per-hop cost of a width-way
// lock-step chase with one-rotation-ahead prefetch. Lanes start evenly
// spaced on the shared cycle so they never converge within a probe.
func chaseNs(table []uint32, width int) float64 {
	if width > maxChaseWidth {
		width = maxChaseWidth
	}
	var start [maxChaseWidth]uint32
	stride := uint32(len(table) / (width + 1))
	lanes := start[:width]
	reset := func() {
		for l := range lanes {
			lanes[l] = uint32(l) * stride
		}
	}
	reset()
	ns := tuning.BestNs(3, 1, func() {
		for step := 0; step < chaseSteps; step++ {
			for l := range lanes {
				nxt := table[lanes[l]]
				Ptr(unsafe.Pointer(&table[nxt]))
				lanes[l] = nxt
			}
		}
	})
	return ns / float64(chaseSteps*width)
}
