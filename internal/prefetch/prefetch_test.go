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

// BestWidth must return one of its candidates (clamped sane), resolve
// deterministically from an empty candidate list, and not blow the
// probe budget.
func TestBestWidthPicksACandidate(t *testing.T) {
	if got := BestWidth(nil); got != 1 {
		t.Fatalf("BestWidth(nil) = %d, want 1", got)
	}
	cands := []int{4, 8, 16}
	got := BestWidth(cands)
	found := false
	for _, c := range cands {
		if got == c {
			found = true
		}
	}
	if !found {
		t.Fatalf("BestWidth(%v) = %d, not a candidate", cands, got)
	}
}

// The probe table must be a single cycle: following next-hops from
// slot 0 has to visit every slot exactly once before returning.
func TestProbeTableIsSingleCycle(t *testing.T) {
	table := probeTable()
	seen := make([]bool, len(table))
	cur := uint32(0)
	for i := 0; i < len(table); i++ {
		if seen[cur] {
			t.Fatalf("revisited slot %d after %d hops", cur, i)
		}
		seen[cur] = true
		cur = table[cur]
	}
	if cur != 0 {
		t.Fatalf("cycle did not close: ended at %d", cur)
	}
}
