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
// Detection is per architecture:
//
//   - amd64: SSE2 is baseline. AVX2 requires CPUID.7.0:EBX[5] AND the
//     OS to have enabled YMM state saving (CPUID.1:ECX.OSXSAVE[27] and
//     XGETBV(0) reporting XMM|YMM, bits 1-2) — a kernel that executes
//     VPADDSW without OS support faults even on an AVX2 CPU.
//   - arm64: ASIMD (NEON) is part of the architectural baseline Go
//     targets; no HWCAP probe is needed.
//   - everything else: no SIMD tiers, portable Go only.
//
// The GBENCH_SIMD environment variable overrides the allowed ceiling:
//
//	GBENCH_SIMD=off    portable Go everywhere (no asm at all)
//	GBENCH_SIMD=sse2   amd64 SSE2 kernels only, no AVX2 (no-op on arm64)
//	GBENCH_SIMD=avx2   allow up to AVX2 (still requires hardware support)
//	GBENCH_SIMD=neon   allow NEON on arm64 (no-op on amd64)
//
// An override can only lower the ceiling below the hardware, never
// raise it above: GBENCH_SIMD=avx2 on a non-AVX2 host still runs the
// SSE2/portable paths. Unset or unrecognized values mean "use the
// best tier detected".
package cpufeat

import (
	"os"
	"strings"
	"sync"
)

// Features is the detected-and-allowed capability set consulted by
// the kernels' dispatch shims.
type Features struct {
	// Hardware capabilities, independent of any override.
	HasSSE2 bool // amd64 baseline
	HasAVX2 bool // amd64 CPUID + OS YMM state
	HasNEON bool // arm64 baseline (ASIMD)

	// Override is the raw GBENCH_SIMD value in effect ("" when unset
	// or unrecognized), recorded so bench host stamps can distinguish
	// a genuinely narrow host from a pinned run.
	Override string
}

var (
	mu    sync.RWMutex
	feats = detectWithOverride()
)

// detectWithOverride combines the arch probe with the environment
// override into the effective feature set.
func detectWithOverride() Features {
	f := detect() // arch-specific (feat_*.go)
	f.Override = parseOverride(os.Getenv("GBENCH_SIMD"))
	return applyOverride(f)
}

// parseOverride canonicalizes a GBENCH_SIMD value; unknown strings
// disable nothing (auto).
func parseOverride(s string) string {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off", "sse2", "avx2", "neon":
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
		f.HasSSE2, f.HasAVX2, f.HasNEON = false, false, false
	case "sse2":
		f.HasAVX2, f.HasNEON = false, false
	case "neon":
		f.HasSSE2, f.HasAVX2 = false, false
	case "avx2":
		// Ceiling at AVX2: everything detected stays allowed.
	}
	return f
}

// Get returns the effective (detected, override-applied) feature set.
func Get() Features {
	mu.RLock()
	defer mu.RUnlock()
	return feats
}

// AVX2 reports whether AVX2 kernels may run: hardware support present
// and not overridden away.
func AVX2() bool { return Get().HasAVX2 }

// Wide16 reports whether a 16-lane int16 asm kernel may run on this
// host: AVX2 on amd64, NEON on arm64. This is the single dispatch
// question the poa and bsw wide row kernels ask.
func Wide16() bool {
	f := Get()
	return f.HasAVX2 || f.HasNEON
}

// Active names the widest tier the process will actually use —
// "avx2", "neon", "sse2", or "portable" — for host stamps and logs.
func Active() string {
	f := Get()
	switch {
	case f.HasAVX2:
		return "avx2"
	case f.HasNEON:
		return "neon"
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
	if f.HasNEON {
		tiers = append(tiers, "neon")
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
// ("off", "sse2", "avx2", "neon", or "auto" to re-detect) and returns
// a restore func. Forcing can only lower the ceiling — forcing "avx2"
// on a non-AVX2 host leaves HasAVX2 false, so tests must skip, not
// assume. Tests that exercise both sides of a dispatch use this
// instead of mutating the environment.
func ForceForTest(simd string) (restore func()) {
	mu.Lock()
	prev := feats
	f := detect()
	f.Override = parseOverride(simd)
	feats = applyOverride(f)
	mu.Unlock()
	return func() {
		mu.Lock()
		feats = prev
		mu.Unlock()
	}
}
