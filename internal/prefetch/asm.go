//go:build amd64

package prefetch

import "unsafe"

// HaveAsm reports whether Ptr dispatches to a real prefetch
// instruction on this architecture (informational, used by tests and
// docs — the phmm haveRowAsm idiom).
const HaveAsm = true

// prefetchT0 is implemented in prefetch_amd64.s (PREFETCHT0).
//
//go:noescape
func prefetchT0(addr unsafe.Pointer)

// Ptr hints the cache hierarchy to pull the line containing p toward
// the core. It is safe on any address the caller could legally read.
func Ptr(p unsafe.Pointer) { prefetchT0(p) }
