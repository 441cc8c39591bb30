package chain

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/genome"
)

// minimizersReference is the full per-window scan Minimizers replaced:
// every window's w hashes are compared afresh, the leftmost minimum
// kept. It is the reference the sliding-minimum scan must equal.
func minimizersReference(s genome.Seq, k, w int) []Minimizer {
	if len(s) < k+w-1 || k <= 0 || k > 31 || w <= 0 {
		return nil
	}
	mask := uint64(1)<<(2*uint(k)) - 1
	nk := len(s) - k + 1
	hashes := make([]uint64, nk)
	genome.EachKmer(s, k, func(pos int, code uint64) {
		hashes[pos] = hash64(code, mask)
	})
	var out []Minimizer
	lastPos := int32(-1)
	for start := 0; start+w <= nk; start++ {
		minIdx := start
		for i := start + 1; i < start+w; i++ {
			if hashes[i] < hashes[minIdx] {
				minIdx = i
			}
		}
		if int32(minIdx) != lastPos {
			out = append(out, Minimizer{Hash: hashes[minIdx], Pos: int32(minIdx)})
			lastPos = int32(minIdx)
		}
	}
	return out
}

// sharedAnchorsReference is the index SharedAnchors replaced: a slice
// of target positions per hash, looked up per query minimizer, then
// sorted. SharedAnchors must equal it.
func sharedAnchorsReference(query, target genome.Seq, k, w, maxOcc int) []Anchor {
	qm := minimizersReference(query, k, w)
	tm := minimizersReference(target, k, w)
	tIndex := make(map[uint64][]int32, len(tm))
	for _, m := range tm {
		tIndex[m.Hash] = append(tIndex[m.Hash], m.Pos)
	}
	var anchors []Anchor
	for _, m := range qm {
		positions := tIndex[m.Hash]
		if len(positions) == 0 || (maxOcc > 0 && len(positions) > maxOcc) {
			continue
		}
		for _, tp := range positions {
			anchors = append(anchors, Anchor{X: tp + int32(k) - 1, Y: m.Pos + int32(k) - 1, W: int32(k)})
		}
	}
	sort.Slice(anchors, func(i, j int) bool {
		if anchors[i].X != anchors[j].X {
			return anchors[i].X < anchors[j].X
		}
		return anchors[i].Y < anchors[j].Y
	})
	return anchors
}

// TestSharedAnchorsMatchReference: overlapping, unrelated and
// low-complexity read pairs — the last with hashes repeated past
// maxOcc — give the reference's anchors exactly, at the chain
// kernel's k, w and maxOcc and with the repeat cut-off off and tight.
func TestSharedAnchorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		// A 1-letter read samples every k-mer and every pair of them is
		// an anchor, so low-complexity reads stay short.
		alpha := []int{4, 4, 2, 1}[trial%4]
		maxLen := map[int]int{4: 4000, 2: 800, 1: 200}[alpha]
		src := alphabetSeq(rng, 20_000, alpha)
		aLen, bLen := 30+rng.Intn(maxLen), 30+rng.Intn(maxLen)
		aStart := rng.Intn(len(src) - aLen)
		bStart := rng.Intn(len(src) - bLen)
		if trial%3 != 0 { // overlapping
			bStart = min(aStart+rng.Intn(aLen), len(src)-bLen)
		}
		a, b := src[aStart:aStart+aLen], src[bStart:bStart+bLen]
		for _, maxOcc := range []int{100, 0, 2} {
			got, want := SharedAnchors(b, a, 15, 10, maxOcc), sharedAnchorsReference(b, a, 15, 10, maxOcc)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (alphabet %d, maxOcc %d): %d anchors, reference %d", trial, alpha, maxOcc, len(got), len(want))
			}
		}
	}
}

// alphabetSeq draws n bases from the first alpha letters: alpha 1 makes
// every k-mer tie, alpha 2 makes ties common.
func alphabetSeq(rng *rand.Rand, n, alpha int) genome.Seq {
	s := make(genome.Seq, n)
	for i := range s {
		s[i] = genome.Base(rng.Intn(alpha))
	}
	return s
}

func TestMinimizersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name        string
		n, alpha    int
		k, w        int
		wantSamples bool
	}{
		{"random 6kb k15 w10", 6000, 4, 15, 10, true},
		{"random k19 w5", 2000, 4, 19, 5, true},
		{"w=1 samples every k-mer", 500, 4, 15, 1, true},
		{"k=31", 3000, 4, 31, 10, true},
		{"k=1", 300, 4, 1, 7, true},
		{"all ties, 1 letter", 400, 1, 15, 10, true},
		{"all ties, 1 letter, w=1", 100, 1, 5, 1, true},
		{"2 letters", 2000, 2, 15, 10, true},
		{"2 letters, k=3", 500, 2, 3, 20, true},
		{"len = k+w-1", 15 + 10 - 1, 4, 15, 10, true},
		{"len = k+w-2", 15 + 10 - 2, 4, 15, 10, false},
		{"len < k", 10, 4, 15, 10, false},
		{"empty", 0, 4, 15, 10, false},
		{"w larger than the read", 100, 4, 15, 200, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := alphabetSeq(rng, c.n, c.alpha)
			got, want := Minimizers(s, c.k, c.w), minimizersReference(s, c.k, c.w)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Minimizers = %v,\nreference = %v", got, want)
			}
			if (len(got) > 0) != c.wantSamples {
				t.Fatalf("%d minimizers, want samples: %v", len(got), c.wantSamples)
			}
		})
	}
}

// FuzzMinimizers holds Minimizers to the per-window scan on any bases,
// k in [1, 31], w in [1, 64] and an alphabet of 1 to 4 letters.
func FuzzMinimizers(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	f.Add(random(400), uint8(14), uint8(9), uint8(3)) // k=15, w=10
	f.Add(random(400), uint8(14), uint8(9), uint8(0)) // all ties
	f.Add(random(400), uint8(14), uint8(9), uint8(1)) // 2 letters
	f.Add(random(200), uint8(14), uint8(0), uint8(3)) // w=1
	f.Add(random(200), uint8(30), uint8(9), uint8(3)) // k=31
	f.Add(random(24), uint8(14), uint8(9), uint8(3))  // len = k+w-1
	f.Add(random(23), uint8(14), uint8(9), uint8(3))  // one short
	f.Add(random(5), uint8(14), uint8(9), uint8(3))   // below k
	f.Add(random(300), uint8(2), uint8(63), uint8(1)) // k=3, w=64
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0))     // empty
	f.Fuzz(func(t *testing.T, data []byte, k, w, alpha uint8) {
		kk, ww, aa := 1+int(k)%31, 1+int(w)%64, 1+int(alpha)%4
		s := make(genome.Seq, len(data))
		for i, b := range data {
			s[i] = genome.Base(int(b) % aa)
		}
		got, want := Minimizers(s, kk, ww), minimizersReference(s, kk, ww)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d w=%d alphabet=%d len=%d:\nMinimizers = %v\nreference  = %v", kk, ww, aa, len(s), got, want)
		}
	})
}

// TestMinimizersAllocs: one call allocates the ring and the output,
// sized once from the read, and nothing per k-mer.
func TestMinimizersAllocs(t *testing.T) {
	s := genome.Random(rand.New(rand.NewSource(4)), 6000)
	if allocs := testing.AllocsPerRun(20, func() { Minimizers(s, 15, 10) }); allocs > 2 {
		t.Errorf("Minimizers: %.0f allocs/call, want <= 2", allocs)
	}
}

// BenchmarkSharedAnchors pairs the chained index with the
// slice-per-hash reference on an overlapping pair of 6 kb reads.
func BenchmarkSharedAnchors(b *testing.B) {
	src := genome.Random(rand.New(rand.NewSource(4)), 10_000)
	q, t := src[3000:9000], src[:6000]
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sharedAnchorsReference(q, t, 15, 10, 100)
		}
	})
	b.Run("chained", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			SharedAnchors(q, t, 15, 10, 100)
		}
	})
}

// BenchmarkMinimizers pairs the sliding-minimum scan with the
// per-window reference on a 6 kb read at the chain kernel's k and w.
func BenchmarkMinimizers(b *testing.B) {
	s := genome.Random(rand.New(rand.NewSource(4)), 6000)
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			minimizersReference(s, 15, 10)
		}
	})
	b.Run("sliding", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Minimizers(s, 15, 10)
		}
	})
}
