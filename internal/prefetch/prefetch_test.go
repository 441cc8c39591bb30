package prefetch

import (
	"runtime"
	"testing"
	"unsafe"
)

// Ptr must be callable on any readable address — slice interiors,
// struct fields, the first and last byte of an allocation — without
// observable effect.
func TestPtrIsHarmless(t *testing.T) {
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = byte(i)
	}
	Ptr(unsafe.Pointer(&buf[0]))
	Ptr(unsafe.Pointer(&buf[len(buf)-1]))
	var s struct{ a, b uint64 }
	Ptr(unsafe.Pointer(&s.b))
	for i, b := range buf {
		if b != byte(i) {
			t.Fatalf("buf[%d] changed to %d after prefetch", i, b)
		}
	}
}

// The stub is wired on amd64 only; arm64 and every other architecture
// take the pure-Go no-op.
func TestHaveAsmMatchesArch(t *testing.T) {
	if want := runtime.GOARCH == "amd64"; HaveAsm != want {
		t.Fatalf("HaveAsm = %v on %s, want %v", HaveAsm, runtime.GOARCH, want)
	}
}
