package fmindex

import (
	"testing"

	"repro/internal/genome"
)

// FuzzOccBlock drives the one-hot Occ block and everything built on it
// against the byte-scan forms. The fuzzer supplies genome bytes (mapped
// &3, length 1..4096) and a row. On the built index: occ4 against
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
