//go:build !amd64

package prefetch

import "unsafe"

// HaveAsm reports whether Ptr dispatches to a real prefetch
// instruction on this architecture.
const HaveAsm = false

// Ptr is a no-op off amd64 (arm64 included): batching still reorders
// the access stream (useful under the cache simulator), the hardware
// just gets no early hint.
func Ptr(p unsafe.Pointer) { _ = p }
