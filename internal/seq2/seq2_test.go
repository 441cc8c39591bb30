package seq2

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
)

// scalarRevComp is the O(k) loop the packed version replaces.
func scalarRevComp(code uint64, k int) uint64 {
	rc := uint64(0)
	x := code
	for i := 0; i < k; i++ {
		rc = rc<<2 | (3 - (x & 3))
		x >>= 2
	}
	return rc
}

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 65, 1000} {
		s := genome.Random(rng, n)
		p := Pack(s)
		if p.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, p.Len())
		}
		if !p.Unpack().Equal(s) {
			t.Fatalf("n=%d: round trip mismatch", n)
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
	if !p.Unpack().Equal(s) {
		t.Fatal("PackInto mismatch")
	}
	s2 := genome.Random(rng, 200)
	p2 := PackInto(p.WordsSlice(), s2)
	if !p2.Unpack().Equal(s2) {
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
				if got := MatchBit(mask, i); got != want {
					t.Fatalf("n=%d b=%d i=%d: MatchBit=%v want %v", n, b, i, got, want)
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

func TestRevCompCodeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for k := 1; k <= 31; k++ {
		for trial := 0; trial < 50; trial++ {
			code := rng.Uint64() & (1<<(2*uint(k)) - 1)
			if got, want := RevCompCode(code, k), scalarRevComp(code, k); got != want {
				t.Fatalf("k=%d code=%#x: RevCompCode=%#x want %#x", k, code, got, want)
			}
		}
	}
}

func TestRevCompMatchesSeqReverseComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for k := 1; k <= 31; k++ {
		s := genome.Random(rng, k)
		code := genome.KmerCode(s, 0, k)
		want := genome.KmerCode(s.ReverseComplement(), 0, k)
		if got := RevCompCode(code, k); got != want {
			t.Fatalf("k=%d: RevCompCode=%#x want %#x", k, got, want)
		}
	}
}

func TestCanonicalMin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(31)
		code := rng.Uint64() & (1<<(2*uint(k)) - 1)
		rc := scalarRevComp(code, k)
		want := code
		if rc < code {
			want = rc
		}
		if got := Canonical(code, k); got != want {
			t.Fatalf("k=%d: Canonical=%#x want %#x", k, got, want)
		}
	}
}

func BenchmarkRevComp(b *testing.B) {
	const k = 17
	codes := make([]uint64, 1024)
	rng := rand.New(rand.NewSource(8))
	for i := range codes {
		codes[i] = rng.Uint64() & (1<<(2*k) - 1)
	}
	b.Run("scalar", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink ^= scalarRevComp(codes[i%len(codes)], k)
		}
		_ = sink
	})
	b.Run("swar", func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink ^= RevCompCode(codes[i%len(codes)], k)
		}
		_ = sink
	})
}
