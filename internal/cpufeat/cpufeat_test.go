package cpufeat

import (
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestDetectBaseline(t *testing.T) {
	f := detect()
	if f.Override != "" {
		t.Fatalf("detect must report hardware only, got override %q", f.Override)
	}
	if detect() != f {
		t.Fatal("detect must answer the same on every call")
	}
	// No assembly ships off amd64, arm64 included: the portable bodies
	// are the only path, so there is no tier to report.
	if runtime.GOARCH != "amd64" && f != (Features{}) {
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

	// "off", a retired "sse2" and a typo all pin the portable bodies
	// and stamp what was asked for.
	for _, simd := range []string{"off", "sse2", "avx"} {
		restore := ForceForTest(simd)
		if AVX2() {
			t.Fatalf("GBENCH_SIMD=%s must disable AVX2", simd)
		}
		if want := "portable (GBENCH_SIMD=" + simd + ")"; String() != want {
			t.Fatalf("String under %s = %q, want %q", simd, String(), want)
		}
		restore()
	}

	for _, simd := range []string{"avx2", ""} {
		restore := ForceForTest(simd)
		if AVX2() != hw.HasAVX2 {
			t.Fatalf("GBENCH_SIMD=%q: AVX2() = %v, hardware %v — an override must neither enable a tier the hardware lacks nor drop one it allows", simd, AVX2(), hw.HasAVX2)
		}
		restore()
	}

	// After every restore the effective set is back to process state.
	if s, _ := parseOverride(Get().Override); s != Get().Override {
		t.Fatal("restore left a non-canonical override")
	}
}

func TestParseOverride(t *testing.T) {
	type want struct {
		stamp     string
		allowAVX2 bool
	}
	for in, w := range map[string]want{
		"": {"", true}, "avx2": {"avx2", true}, " AVX2 ": {"avx2", true},
		"off": {"off", false}, "OFF": {"off", false},
		// Every other value pins the portable bodies: a stale "sse2"
		// must not silently run AVX2, and neither may a typo.
		" Sse2 ": {"sse2", false}, "avx": {"avx", false},
		"bogus": {"bogus", false}, "avx512": {"avx512", false},
		"neon": {"neon", false}, // no arm64 tier
	} {
		if stamp, allow := parseOverride(in); stamp != w.stamp || allow != w.allowAVX2 {
			t.Errorf("parseOverride(%q) = (%q, %v), want (%q, %v)", in, stamp, allow, w.stamp, w.allowAVX2)
		}
	}
}

// TestWide16MatchesTiers: the 16-lane int16 kernels (bsw, poa) run
// exactly when AVX2() says so, and the host stamp must name that same
// tier under every GBENCH_SIMD value, so wide and portable results are
// never filed under one another's stamp.
func TestWide16MatchesTiers(t *testing.T) {
	for _, simd := range []string{"", "off", "avx2", "sse2", "avx"} {
		restore := ForceForTest(simd)
		if wide, stamp := AVX2(), String(); wide != strings.HasPrefix(stamp, "avx2") {
			t.Errorf("GBENCH_SIMD=%q: AVX2() = %v but stamp %q", simd, wide, stamp)
		}
		restore()
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
