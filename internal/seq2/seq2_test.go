package seq2

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
)

// holds reports whether p packs exactly s.
func holds(p Packed, s genome.Seq) bool {
	if p.Len() != len(s) {
		return false
	}
	for i, b := range s {
		if p.Get(i) != b {
			return false
		}
	}
	return true
}

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 65, 1000} {
		s := genome.Random(rng, n)
		p := Pack(s)
		if p.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, p.Len())
		}
		for i := 0; i < n; i++ {
			if p.Get(i) != s[i] {
				t.Fatalf("n=%d: Get(%d)=%d want %d", n, i, p.Get(i), s[i])
			}
		}
	}
}

func TestPackIntoReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	buf := make([]uint64, 8)
	s := genome.Random(rng, 100)
	p := PackInto(buf, s)
	if !holds(p, s) {
		t.Fatal("PackInto mismatch")
	}
	s2 := genome.Random(rng, 200)
	p2 := PackInto(p.WordsSlice(), s2)
	if !holds(p2, s2) {
		t.Fatal("PackInto regrow mismatch")
	}
}

func TestMatchMaskDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		s := genome.Random(rng, n)
		p := Pack(s)
		mask := make([]uint64, Words(n))
		for b := genome.Base(0); b < 4; b++ {
			MatchMask(mask, p, b)
			for i := 0; i < n; i++ {
				want := s[i] == b
				// One flag per 2-bit lane, in the lane's low bit.
				if got := mask[i/BasesPerWord]>>(2*(uint(i)%BasesPerWord))&1 != 0; got != want {
					t.Fatalf("n=%d b=%d i=%d: lane bit=%v want %v", n, b, i, got, want)
				}
			}
		}
	}
}

func TestMatchMaskBitsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(400)
		s := genome.Random(rng, n)
		p := Pack(s)
		mask := make([]uint64, BitsWords(n))
		for b := genome.Base(0); b < 4; b++ {
			MatchMaskBits(mask, p, b)
			for i := 0; i < n; i++ {
				want := s[i] == b
				if got := mask[i/64]>>(uint(i)%64)&1 != 0; got != want {
					t.Fatalf("n=%d b=%d i=%d: bit=%v want %v", n, b, i, got, want)
				}
			}
			// Padding bits beyond n must be zero even for base A, which
			// the 2-bit packing's padding lanes alias.
			for i := n; i < 64*len(mask); i++ {
				if mask[i/64]>>(uint(i)%64)&1 != 0 {
					t.Fatalf("n=%d b=%d: padding bit %d set", n, b, i)
				}
			}
		}
	}
}
