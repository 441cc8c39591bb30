package lanes

import (
	"math/rand"
	"testing"
)

// clamp32 is the reference saturation: exact int32 arithmetic clamped
// to the int16 range.
func clamp32(v int32) int16 {
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// boundary is the exhaustive saturation-boundary operand set: both
// extremes, their neighbors, zero and its neighbors — every pairing
// that can wrap, saturate, or sit exactly on the rail.
var boundary = []int16{-32768, -32767, -32766, -16384, -2, -1, 0, 1, 2, 16383, 32766, 32767}

// spread builds a wide vector whose sixteen lanes cycle through the
// operand set starting at phase p, so one call covers sixteen distinct
// pairings.
func spread(vals []int16, p int) I16x16 {
	var a [WideWidth]int16
	for l := range a {
		a[l] = vals[(p+l)%len(vals)]
	}
	return FromArrayI16x16(a)
}

func TestI16x16SaturationBoundaries(t *testing.T) {
	// Exhaustive over boundary x boundary for the vector-vector forms,
	// phase-shifted so every lane position sees every pairing.
	for pa := range boundary {
		for pb := range boundary {
			a, b := spread(boundary, pa), spread(boundary, pb)
			aa, ba := a.Array(), b.Array()

			adds, subs := a.Adds(b).Array(), a.Subs(b).Array()
			for l := 0; l < WideWidth; l++ {
				if want := clamp32(int32(aa[l]) + int32(ba[l])); adds[l] != want {
					t.Fatalf("Adds lane %d: %d+%d = %d, want %d", l, aa[l], ba[l], adds[l], want)
				}
				if want := clamp32(int32(aa[l]) - int32(ba[l])); subs[l] != want {
					t.Fatalf("Subs lane %d: %d-%d = %d, want %d", l, aa[l], ba[l], subs[l], want)
				}
			}
		}
	}
	// Scalar-broadcast forms over the same exhaustive operand set.
	for pa := range boundary {
		a := spread(boundary, pa)
		aa := a.Array()
		for _, s := range boundary {
			addsS, subsS := a.AddsS(s).Array(), a.SubsS(s).Array()
			for l := 0; l < WideWidth; l++ {
				if want := clamp32(int32(aa[l]) + int32(s)); addsS[l] != want {
					t.Fatalf("AddsS lane %d: %d+%d = %d, want %d", l, aa[l], s, addsS[l], want)
				}
				if want := clamp32(int32(aa[l]) - int32(s)); subsS[l] != want {
					t.Fatalf("SubsS lane %d: %d-%d = %d, want %d", l, aa[l], s, subsS[l], want)
				}
			}
		}
	}
}

func TestI16x16SaturatingSubComposes(t *testing.T) {
	// The wide kernels' prefix chains rely on sat(sat(x-a)-b) ==
	// sat(x-(a+b)) for non-negative a, b with a+b in range.
	decs := []int16{0, 1, 7, 100, 8000, 16000}
	for pa := range boundary {
		x := spread(boundary, pa)
		for _, a := range decs {
			for _, b := range decs {
				if int32(a)+int32(b) > 32767 {
					continue
				}
				got := x.SubsS(a).SubsS(b).Array()
				want := x.SubsS(a + b).Array()
				if got != want {
					t.Fatalf("sat sub does not compose at a=%d b=%d: %v vs %v", a, b, got, want)
				}
			}
		}
	}
}

func TestI16x16BlendMaxExhaustiveLanePatterns(t *testing.T) {
	// Every one of the 65536 mask patterns, against a scalar per-lane
	// select, so a crossed lane is visible.
	for m := 0; m < 1<<WideWidth; m++ {
		pick := Pick16(uint16(m), 7, -9).Array()
		for l := 0; l < WideWidth; l++ {
			want := int16(-9)
			if m>>l&1 == 1 {
				want = 7
			}
			if pick[l] != want {
				t.Fatalf("mask %04x lane %d: pick=%d, want %d", m, l, pick[l], want)
			}
		}
	}
	// Max over every per-lane ordering pattern: lane l of pattern m is
	// (a>b, a<b, a==b) driven by mask bits of two interleaved patterns.
	for m := 0; m < 1<<WideWidth; m++ {
		var aA, bA [WideWidth]int16
		for l := range aA {
			switch {
			case m>>l&1 == 1:
				aA[l], bA[l] = int16(l+1), int16(-l-1) // a wins
			case l%3 == 0:
				aA[l], bA[l] = int16(5), int16(5) // tie
			default:
				aA[l], bA[l] = int16(-l-1), int16(l+1) // b wins
			}
		}
		got := FromArrayI16x16(aA).Max(FromArrayI16x16(bA)).Array()
		for l := range aA {
			want := aA[l]
			if bA[l] > want {
				want = bA[l]
			}
			if got[l] != want {
				t.Fatalf("Max pattern %04x lane %d: got %d want %d", m, l, got[l], want)
			}
		}
	}
}

func TestI16x16CmpGtFullPrecision(t *testing.T) {
	// Max's strict-greater comparison must not wrap at the int16
	// boundary: -32768 > 32767 is false, 32767 > -32768 true, for every
	// pairing of boundary operands in every lane position.
	for pa := range boundary {
		for pb := range boundary {
			a, b := spread(boundary, pa), spread(boundary, pb)
			aa, ba, got := a.Array(), b.Array(), a.Max(b).Array()
			for l := 0; l < WideWidth; l++ {
				want := aa[l]
				if ba[l] > want {
					want = ba[l]
				}
				if got[l] != want {
					t.Fatalf("Max lane %d: max(%d, %d) = %d, want %d", l, aa[l], ba[l], got[l], want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 2000; it++ {
		var aA, bA [WideWidth]int16
		for l := range aA {
			aA[l], bA[l] = int16(rng.Int()), int16(rng.Int())
		}
		got := FromArrayI16x16(aA).Max(FromArrayI16x16(bA)).Array()
		for l := range aA {
			want := aA[l]
			if bA[l] > want {
				want = bA[l]
			}
			if got[l] != want {
				t.Fatalf("Max lane %d: max(%d, %d) = %d, want %d", l, aA[l], bA[l], got[l], want)
			}
		}
	}
}

func TestI16x16RoundTripAndHMax(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := make([]int16, 64)
	for it := 0; it < 500; it++ {
		for i := range s {
			s[i] = int16(rng.Int())
		}
		v := Load16I16(s, 3)
		if v.Array() != FromArrayI16x16(v.Array()).Array() {
			t.Fatal("FromArray/Array round trip broken")
		}
		out := make([]int16, 64)
		Store16I16(out, 3, v)
		for l := 0; l < WideWidth; l++ {
			if out[3+l] != s[3+l] {
				t.Fatalf("load/store lane %d mismatch", l)
			}
		}
		want := s[3]
		for l := 1; l < WideWidth; l++ {
			if s[3+l] > want {
				want = s[3+l]
			}
		}
		// The row maximum as bsw's wide kernel takes it: a scan of
		// Array() in lane order.
		got := v.Array()[0]
		for _, x := range v.Array() {
			got = max(got, x)
		}
		if got != want {
			t.Fatalf("max over Array() = %d, want %d", got, want)
		}
	}
}
