package fmindex

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
)

// checkOcc4 compares the popcount rank and the byte-scan reference, at
// every p in [0, rows], with a prefix count kept from row 0: occ4Scalar
// starts from the block's own checkpoint, the prefix count shares
// nothing with the blocks.
func checkOcc4(t *testing.T, x *Index) {
	t.Helper()
	var want [4]int32
	for p := 0; p <= len(x.bwt); p++ {
		if got, ref := x.occ4t(p, nil), x.occ4Scalar(p); got != want || ref != want {
			t.Fatalf("rows=%d p=%d (primary=%d): popcount %v, byte scan %v, prefix count %v",
				len(x.bwt), p, x.primary, got, ref, want)
		}
		if p < len(x.bwt) && x.bwt[p] < 4 {
			want[x.bwt[p]]++
		}
	}
}

// blocksOver wraps arbitrary BWT rows (base codes, sentinelCode at
// primary) in an Index that can only rank. A built index always has an
// odd row count (2n+1), so this is how rows%64 == 0 and a sentinel on a
// chosen bit of a block are reached.
func blocksOver(rows []byte, primary int) *Index {
	bwt := make([]byte, len(rows))
	for i, b := range rows {
		bwt[i] = b & 3
	}
	bwt[primary] = sentinelCode
	x := &Index{textLen: len(bwt) - 1, bwt: bwt, primary: primary}
	x.buildBlocks()
	return x
}

// The popcount-ranked occ4t must match the byte-scan reference at every
// position, p == rows included: with rows%64 at 1 and 63 on built
// indexes, and on raw rows with rows%64 == 0 and the sentinel on the
// first and last bit of a block.
func TestOcc4PackedDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 32 * 7, 32*5 + 31, 300 + rng.Intn(300)} {
		checkOcc4(t, Build(genome.Random(rng, n)))
	}
	for _, tc := range []struct{ rows, primary int }{
		{64, 0}, {64, 63}, {128, 64}, {192, 127}, {130, 129},
	} {
		checkOcc4(t, blocksOver(genome.Random(rng, tc.rows), tc.primary))
	}
}

// The single-base extensions must build exactly the interval the
// all-four forms build for that base, at every interval of a walk from
// the root until it empties.
func TestExtend1MatchesExtend4(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 20; trial++ {
		g := genome.Random(rng, 50+rng.Intn(400))
		x := Build(g)
		checkExtend1(t, x, g[rng.Intn(len(g)):])
	}
}

// checkExtend1 walks read forward from the root, comparing both
// single-base extensions with the all-four forms for every base at
// every interval on the way.
func checkExtend1(t *testing.T, x *Index, read genome.Seq) {
	t.Helper()
	iv := x.Root()
	for _, next := range read {
		back, fwd := x.extendBackwardT(iv, nil), x.extendForwardT(iv, nil)
		for b := genome.Base(0); b < 4; b++ {
			if got := x.extendBackward1(iv, b, nil); got != back[b] {
				t.Fatalf("extendBackward1(%+v, %d) = %+v, all-four form %+v", iv, b, got, back[b])
			}
			if got := x.extendForward1(iv, b, nil); got != fwd[b] {
				t.Fatalf("extendForward1(%+v, %d) = %+v, all-four form %+v", iv, b, got, fwd[b])
			}
		}
		if iv = fwd[next&3]; iv.S == 0 {
			return
		}
	}
}

// lf ranks only the row's own base; it must agree with the byte-scan
// rank at every row, the primary row (which maps to row 0) included.
func TestLFMatchesScalarRank(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for trial := 0; trial < 3; trial++ {
		checkLF(t, Build(genome.Random(rng, 200+rng.Intn(600))))
	}
}

func checkLF(t *testing.T, x *Index) {
	t.Helper()
	for r, b := range x.bwt {
		want := 0
		if b != sentinelCode {
			want = x.c[b] + int(x.occ4Scalar(r)[b])
		} else if r != x.primary {
			t.Fatalf("sentinel at row %d, primary is %d", r, x.primary)
		}
		if got := x.lf(r); got != want {
			t.Fatalf("lf(%d) = %d, want %d (base %d, primary %d)", r, got, want, b, x.primary)
		}
	}
}

// Byte-scan versus popcount Occ ranking. Lookups hit positions spread
// across the text so block prefixes of every length occur.
func BenchmarkOcc4(b *testing.B) {
	rng := rand.New(rand.NewSource(35))
	g := genome.Random(rng, 1<<16)
	x := Build(g)
	positions := make([]int, 1024)
	for i := range positions {
		positions[i] = rng.Intn(x.textLen + 1)
	}
	b.Run("scalar", func(b *testing.B) {
		var sink int32
		for i := 0; i < b.N; i++ {
			c := x.occ4Scalar(positions[i%len(positions)])
			sink += c[0]
		}
		_ = sink
	})
	b.Run("packed", func(b *testing.B) {
		var sink int32
		for i := 0; i < b.N; i++ {
			c := x.occ4t(positions[i%len(positions)], nil)
			sink += c[0]
		}
		_ = sink
	})
}

// End-to-end SMEM search with packed Occ ranking.
func BenchmarkFindSMEMs(b *testing.B) {
	rng := rand.New(rand.NewSource(36))
	g := genome.Random(rng, 1<<15)
	x := Build(g)
	reads := make([]genome.Seq, 32)
	for i := range reads {
		off := rng.Intn(len(g) - 120)
		reads[i] = g[off : off+120].Clone()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.FindSMEMs(reads[i%len(reads)], 19, 1, nil)
	}
}
