package fmindex

import (
	"slices"
	"testing"

	"repro/internal/genome"
)

// FuzzOccBlock drives the one-hot Occ block and everything built on it
// against the byte-scan forms. The fuzzer supplies genome bytes (mapped
// &3, length 1..4096) and a row. On the built index: occ4t against
// occ4Scalar and a prefix count at every p in [0, rows] (so at row, at
// rows, and on both sides of every block boundary); lf against the
// scalar rank at every row; both single-base extensions against the
// all-four forms along the walk that reads the genome from row. Then
// the same bytes are ranked as raw BWT rows with the sentinel at row —
// the only way to an even row count, rows%64 == 0 included, and to a
// sentinel on any chosen bit of a block.
func FuzzOccBlock(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, row uint16) {
		if len(raw) < 1 || len(raw) > 4096 {
			t.Skip()
		}
		g := make(genome.Seq, len(raw))
		for i, b := range raw {
			g[i] = b & 3
		}
		x := Build(g)
		checkOcc4(t, x)
		checkLF(t, x)
		checkExtend1(t, x, g[int(row)%len(g):])
		checkOcc4(t, blocksOver(raw, int(row)%len(raw)))
	})
}

// FuzzLongSMEMs holds the floored walk to FindSMEMs. The fuzzer
// supplies genome bytes (mapped &3, length 1..4096), the start and
// length of a read cut from the genome, edits planted in the read (a
// position byte scaled to the read, then a base) and the seed floor
// minLen. LongSMEMs must return FindSMEMs' matches in its order, with
// no more Occ lookups on the walk it shares.
func FuzzLongSMEMs(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, start, n uint16, edits []byte, minLen uint8) {
		if len(raw) < 1 || len(raw) > 4096 {
			t.Skip()
		}
		g := make(genome.Seq, len(raw))
		for i, b := range raw {
			g[i] = b & 3
		}
		x := Build(g)
		beg := int(start) % len(g)
		read := g[beg : beg+int(n)%(len(g)-beg+1)].Clone()
		for k := 0; k+1 < len(edits) && len(read) > 0; k += 2 {
			read[int(edits[k])*len(read)/256] = edits[k+1] & 3
		}
		var refLk, lk uint64
		want := x.FindSMEMs(read, int(minLen), 1, &refLk)
		var s SMEMScratch
		if got := x.LongSMEMs(nil, read, int(minLen), &s); !slices.Equal(got, want) {
			t.Fatalf("read %v, minLen %d: LongSMEMs diverge\nFindSMEMs: %+v\nLongSMEMs: %+v", read, minLen, want, got)
		}
		if x.walkSMEMs(nil, read, int(minLen), 1, true, &s, &lk, nil); lk > refLk {
			t.Fatalf("read %v, minLen %d: %d lookups with the floor, %d without", read, minLen, lk, refLk)
		}
	})
}
