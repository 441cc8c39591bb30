//go:build !amd64

package phmm

import "repro/internal/genome"

// No assembly body off amd64 (row_generic.go says why): the portable
// read rows are the only path. The stub keeps the dispatch site
// compiling; haveRowAsm being a false constant removes the call.

func readRowPairAVX2[F Float](tab []F, hap genome.Seq, prev, cur *[3][]F) {
	w := laneCount[F]()
	readRowLanes(tab[:4*w], hap, prev, cur)
	readRowLanes(tab[4*w:], hap, cur, prev)
}
