// Package cpufeat detects, once at startup, whether the running CPU
// supports the suite's one SIMD tier, AVX2, and whether the process is
// allowed to use it. Every assembly fast path in the suite dispatches
// through this package so that (a) an AVX2 kernel never executes on a
// host without AVX2 (the instruction set is NOT part of the amd64
// baseline, unlike SSE2), and (b) every asm path has a forced-portable
// twin reachable without recompiling: GBENCH_SIMD pins the dispatch
// for differential testing, benchmarking a single tier, or working
// around a broken microcode level.
//
// Every assembly kernel in the suite is amd64 AVX2; each sits beside
// the portable Go body it is differential-tested against, and that body
// is what arm64 and every other architecture run. Detection is
// therefore:
//
//   - amd64: AVX2 requires CPUID.7.0:EBX[5] AND the OS to have enabled
//     YMM state saving (CPUID.1:ECX.OSXSAVE[27] and XGETBV(0) reporting
//     XMM|YMM, bits 1-2) — a kernel that executes VPADDSW without OS
//     support faults even on an AVX2 CPU. The tier also requires AVX
//     and FMA (CPUID.1:ECX[28] and [12]), the condition under which Go's
//     math.Exp takes the FMA path that nn's activation lanes copy; every
//     known AVX2 CPU has both, so no other kernel notices.
//   - everything else, arm64 included: no tiers, portable Go only.
//
// The GBENCH_SIMD environment variable overrides the allowed ceiling:
//
//	GBENCH_SIMD=off    portable Go everywhere (no asm at all)
//	GBENCH_SIMD=avx2   allow up to AVX2 (still requires hardware support)
//
// An override can only lower the ceiling below the hardware, never
// raise it above: GBENCH_SIMD=avx2 on a non-AVX2 host still runs the
// portable paths. Unset means "use the best tier detected". Any other
// value — a retired "sse2", a typo — is treated as off and stamped as
// given, so a pin that names no tier runs the portable bodies and says
// so instead of silently running AVX2.
package cpufeat

import (
	"os"
	"strings"
	"sync/atomic"
)

// Features is the detected-and-allowed capability set consulted by
// the kernels' dispatch shims.
type Features struct {
	// HasAVX2: amd64 CPUID (AVX2, AVX, FMA) + OS YMM state, and not
	// overridden away — dispatch sites read the struct directly, so
	// "allowed" and "present" collapse into one answer.
	HasAVX2 bool

	// Override is the GBENCH_SIMD value in effect, trimmed and
	// lower-cased ("" when unset), recorded so host stamps can
	// distinguish a genuinely narrow host from a pinned run.
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
	var allowAVX2 bool
	f.Override, allowAVX2 = parseOverride(simd)
	f.HasAVX2 = f.HasAVX2 && allowAVX2
	return &f
}

// parseOverride canonicalizes a GBENCH_SIMD value and reports whether
// it leaves AVX2 allowed: only unset and "avx2" do.
func parseOverride(s string) (stamp string, allowAVX2 bool) {
	stamp = strings.ToLower(strings.TrimSpace(s))
	return stamp, stamp == "" || stamp == "avx2"
}

// Get returns the effective (detected, override-applied) feature set.
func Get() Features { return *feats.Load() }

// AVX2 reports whether AVX2 kernels may run: hardware support present
// and not overridden away.
func AVX2() bool { return Get().HasAVX2 }

// String renders the capability story for the benchmark's host stamp,
// e.g. "avx2", "portable (GBENCH_SIMD=off)", "portable
// (GBENCH_SIMD=sse2)". Results from different SIMD tiers must be
// distinguishable, so the override state is part of the stamp.
func String() string {
	f := Get()
	s := "portable"
	if f.HasAVX2 {
		s = "avx2"
	}
	if f.Override != "" {
		s += " (GBENCH_SIMD=" + f.Override + ")"
	}
	return s
}

// ForceForTest pins the effective feature set to what simd names
// ("off", "avx2", or "" to re-detect) and returns a restore func.
// Forcing can only lower the ceiling — forcing "avx2" on a non-AVX2
// host leaves HasAVX2 false, so tests must skip, not assume. Tests
// that exercise both sides of a dispatch use this instead of mutating
// the environment.
func ForceForTest(simd string) (restore func()) {
	prev := feats.Swap(resolve(simd))
	return func() { feats.Store(prev) }
}
