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
// state, and costs one call. How many addresses a caller keeps in
// flight is the caller's constant (fmindex.BatchWidth,
// kmercnt.WaveWidth).
package prefetch
