package cpufeat

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestDetectBaseline(t *testing.T) {
	f := detect()
	if runtime.GOARCH == "amd64" {
		if !f.HasSSE2 {
			t.Fatal("amd64 must report SSE2: it is part of the architecture baseline")
		}
		return
	}
	// No assembly ships off amd64, arm64 included: the portable bodies
	// are the only path, so there is no tier to report.
	if f != (Features{}) {
		t.Fatalf("no SIMD tiers expected on %s, got %+v", runtime.GOARCH, f)
	}
}

func TestOverrideLowersCeilingOnly(t *testing.T) {
	hw := detect()

	// Dispatch sites read the set lock-free while a test flips it;
	// under -race this is the coverage for that.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 1000; i++ {
				_, _ = AVX2(), String()
			}
		}()
	}
	defer readers.Wait()

	restore := ForceForTest("off")
	if Get().HasSSE2 || Get().HasAVX2 {
		t.Fatal("GBENCH_SIMD=off must disable every tier")
	}
	if Active() != "portable" {
		t.Fatalf("Active under off = %q, want portable", Active())
	}
	if Wide16() {
		t.Fatal("Wide16 must be false under GBENCH_SIMD=off")
	}
	restore()

	restore = ForceForTest("sse2")
	if Get().HasAVX2 {
		t.Fatal("GBENCH_SIMD=sse2 must disable AVX2")
	}
	if Get().HasSSE2 != hw.HasSSE2 {
		t.Fatal("GBENCH_SIMD=sse2 must not invent or remove SSE2 support")
	}
	restore()

	restore = ForceForTest("avx2")
	if Get().HasAVX2 && !hw.HasAVX2 {
		t.Fatal("an override must never enable a tier the hardware lacks")
	}
	restore()

	// After every restore the effective set is back to process state.
	if Get().Override != parseOverride(Get().Override) {
		t.Fatal("restore left a non-canonical override")
	}
}

func TestParseOverride(t *testing.T) {
	for in, want := range map[string]string{
		"off": "off", "OFF": "off", " Sse2 ": "sse2", "avx2": "avx2",
		"": "", "bogus": "", "avx512": "",
		"neon": "", // no arm64 tier: ignored like any unknown value, not an error
	} {
		if got := parseOverride(in); got != want {
			t.Errorf("parseOverride(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStringCarriesOverride(t *testing.T) {
	restore := ForceForTest("off")
	defer restore()
	s := String()
	if !strings.Contains(s, "portable") || !strings.Contains(s, "GBENCH_SIMD=off") {
		t.Fatalf("String() = %q, want portable with override stamp", s)
	}
}

func TestWide16MatchesTiers(t *testing.T) {
	if Wide16() != AVX2() {
		t.Fatal("Wide16 must be exactly AVX2: the only 16-lane int16 asm kernels are AVX2")
	}
}
