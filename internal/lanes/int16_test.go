package lanes

import (
	"math/rand"
	"testing"
)

// i16Edges are the saturation/overflow boundary values every pairwise
// int16 helper is exercised against, exhaustively.
var i16Edges = []int16{-32768, -32767, -16384, -1, 0, 1, 2, 16383, 32766, 32767}

func TestAddsI16Saturates(t *testing.T) {
	for _, a := range i16Edges {
		for _, b := range i16Edges {
			want := int32(a) + int32(b)
			if want > 32767 {
				want = 32767
			}
			if want < -32768 {
				want = -32768
			}
			got := SplatI16(a).Adds(SplatI16(b))
			for l, v := range got.Array() {
				if int32(v) != want {
					t.Fatalf("Adds(%d,%d) lane %d = %d, want %d", a, b, l, v, want)
				}
			}
			if g := SplatI16(a).AddsS(b); g != got {
				t.Fatalf("AddsS(%d,%d) = %v, want %v", a, b, g, got)
			}
		}
	}
}

func TestAddI16WrapsLikeScalar(t *testing.T) {
	for _, a := range i16Edges {
		for _, b := range i16Edges {
			want := a + b // Go's wrapping int16 add is the contract
			got := SplatI16(a).Add(SplatI16(b))
			for l, v := range got.Array() {
				if v != want {
					t.Fatalf("Add(%d,%d) lane %d = %d, want %d", a, b, l, v, want)
				}
			}
		}
	}
}

// TestCmpGtI16NoWraparound pins Max's comparison at the range
// boundary with a different edge pairing in every lane: 32767 >
// -32768 must hold even though their int16 difference wraps, and no
// lane may take its neighbour's operand.
func TestCmpGtI16NoWraparound(t *testing.T) {
	for pa := range i16Edges {
		for pb := range i16Edges {
			var aA, bA [Width]int16
			for l := 0; l < Width; l++ {
				aA[l] = i16Edges[(pa+l)%len(i16Edges)]
				bA[l] = i16Edges[(pb+3*l)%len(i16Edges)]
			}
			got := FromArrayI16(aA).Max(FromArrayI16(bA)).Array()
			for l := 0; l < Width; l++ {
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
}

// TestBlendI16Exhaustive checks all 256 masks against a scalar
// per-lane select: the picked value must be bit-exactly one input.
func TestBlendI16Exhaustive(t *testing.T) {
	for mask := 0; mask < 256; mask++ {
		pick := PickI16(uint8(mask), 7, -9).Array()
		for l := 0; l < Width; l++ {
			want := int16(-9)
			if mask>>l&1 == 1 {
				want = 7
			}
			if pick[l] != want {
				t.Fatalf("Pick(%02x) lane %d = %d, want %d", mask, l, pick[l], want)
			}
		}
	}
}

// TestMaxI16TieConvention: lane l must be a_l unless b_l is strictly
// greater — the first-operand-wins convention of the scalar cores —
// across the full edge-value cross product.
func TestMaxI16TieConvention(t *testing.T) {
	for _, a := range i16Edges {
		for _, b := range i16Edges {
			want := a
			if b > a {
				want = b
			}
			got := SplatI16(a).Max(SplatI16(b))
			for l, v := range got.Array() {
				if v != want {
					t.Fatalf("Max(%d,%d) lane %d = %d, want %d", a, b, l, v, want)
				}
			}
		}
	}
}

func TestLoadStoreI16RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := make([]int16, 64)
	for i := range s {
		s[i] = int16(rng.Intn(1 << 16))
	}
	for i := 0; i+Width <= len(s); i += 3 {
		v := Load8I16(s, i)
		arr := v.Array()
		for l := 0; l < Width; l++ {
			if arr[l] != s[i+l] {
				t.Fatalf("Load8I16 at %d lane %d = %d, want %d", i, l, arr[l], s[i+l])
			}
		}
		dst := make([]int16, len(s))
		Store8I16(dst, i, v)
		for l := 0; l < Width; l++ {
			if dst[i+l] != s[i+l] {
				t.Fatalf("Store8I16 at %d lane %d = %d, want %d", i, l, dst[i+l], s[i+l])
			}
		}
	}
}
