// Package cpufeat detects, once at startup, which SIMD tiers the
// running CPU supports and which of them the process is allowed to
// use. Every assembly fast path in the suite dispatches through this
// package so that (a) an AVX2 kernel never executes on a host without
// AVX2 (the instruction set is NOT part of the amd64 baseline, unlike
// SSE2), and (b) every asm path has a forced-portable twin reachable
// without recompiling: GBENCH_SIMD pins the dispatch for differential
// testing, benchmarking a single tier, or working around a broken
// microcode level.
//
// Every assembly kernel in the suite is amd64; each sits beside the
// portable Go body it is differential-tested against, and that body is
// what arm64 and every other architecture run. Detection is therefore:
//
//   - amd64: SSE2 is baseline. AVX2 requires CPUID.7.0:EBX[5] AND the
//     OS to have enabled YMM state saving (CPUID.1:ECX.OSXSAVE[27] and
//     XGETBV(0) reporting XMM|YMM, bits 1-2) — a kernel that executes
//     VPADDSW without OS support faults even on an AVX2 CPU.
//   - everything else, arm64 included: no tiers, portable Go only.
//
// The GBENCH_SIMD environment variable overrides the allowed ceiling:
//
//	GBENCH_SIMD=off    portable Go everywhere (no asm at all)
//	GBENCH_SIMD=sse2   no AVX2 (every SIMD kernel is AVX2, so portable Go)
//	GBENCH_SIMD=avx2   allow up to AVX2 (still requires hardware support)
//
// An override can only lower the ceiling below the hardware, never
// raise it above: GBENCH_SIMD=avx2 on a non-AVX2 host still runs the
// portable paths. Unset or unrecognized values mean "use the
// best tier detected".
package cpufeat

import (
	"os"
	"strings"
	"sync/atomic"
)

// Features is the detected-and-allowed capability set consulted by
// the kernels' dispatch shims.
type Features struct {
	// Hardware capabilities, independent of any override.
	HasSSE2 bool // amd64 baseline
	HasAVX2 bool // amd64 CPUID + OS YMM state

	// Override is the raw GBENCH_SIMD value in effect ("" when unset
	// or unrecognized), recorded so bench host stamps can distinguish
	// a genuinely narrow host from a pinned run.
	Override string
}

// feats is the effective feature set: written by init and
// ForceForTest, read lock-free by every dispatch site.
var feats atomic.Pointer[Features]

func init() { feats.Store(resolve(os.Getenv("GBENCH_SIMD"))) }

// resolve combines the arch probe (feat_*.go) with a GBENCH_SIMD value
// into the effective feature set.
func resolve(simd string) *Features {
	f := detect()
	f.Override = parseOverride(simd)
	f = applyOverride(f)
	return &f
}

// parseOverride canonicalizes a GBENCH_SIMD value; unknown strings
// disable nothing (auto).
func parseOverride(s string) string {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off", "sse2", "avx2":
		return strings.ToLower(strings.TrimSpace(s))
	}
	return ""
}

// applyOverride lowers the capability ceiling to the override. The
// hardware Has* bits are preserved in the returned struct only where
// the override allows their use — dispatch sites read the struct
// directly, so "allowed" and "present" collapse into one answer.
func applyOverride(f Features) Features {
	switch f.Override {
	case "off":
		f.HasSSE2, f.HasAVX2 = false, false
	case "sse2":
		f.HasAVX2 = false
	case "avx2":
		// Ceiling at AVX2: everything detected stays allowed.
	}
	return f
}

// Get returns the effective (detected, override-applied) feature set.
func Get() Features { return *feats.Load() }

// AVX2 reports whether AVX2 kernels may run: hardware support present
// and not overridden away.
func AVX2() bool { return Get().HasAVX2 }

// Wide16 reports whether a 16-lane int16 asm kernel may run on this
// host — the dispatch question the poa and bsw wide row kernels ask.
// The only such kernels are AVX2, so it is exactly AVX2().
func Wide16() bool { return AVX2() }

// Active names the widest tier the process will actually use —
// "avx2", "sse2", or "portable" — for host stamps and logs.
func Active() string {
	f := Get()
	switch {
	case f.HasAVX2:
		return "avx2"
	case f.HasSSE2:
		return "sse2"
	}
	return "portable"
}

// String renders the full capability story for the benchmark's host
// stamp, e.g. "sse2+avx2", "sse2 (GBENCH_SIMD=sse2)", "portable
// (GBENCH_SIMD=off)". Results from different SIMD tiers must be
// distinguishable, so the override state is part of the stamp.
func String() string {
	f := Get()
	var tiers []string
	if f.HasSSE2 {
		tiers = append(tiers, "sse2")
	}
	if f.HasAVX2 {
		tiers = append(tiers, "avx2")
	}
	s := "portable"
	if len(tiers) > 0 {
		s = strings.Join(tiers, "+")
	}
	if f.Override != "" {
		s += " (GBENCH_SIMD=" + f.Override + ")"
	}
	return s
}

// ForceForTest pins the effective feature set to what simd names
// ("off", "sse2", "avx2", or "auto" to re-detect) and returns a
// restore func. Forcing can only lower the ceiling — forcing "avx2"
// on a non-AVX2 host leaves HasAVX2 false, so tests must skip, not
// assume. Tests that exercise both sides of a dispatch use this
// instead of mutating the environment.
func ForceForTest(simd string) (restore func()) {
	prev := feats.Swap(resolve(simd))
	return func() { feats.Store(prev) }
}
