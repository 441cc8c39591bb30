//go:build !amd64

package phmm

import "repro/internal/genome"

// No assembly body off amd64 (row_generic.go says why): the portable
// read rows are the only path. The stub keeps the dispatch site
// compiling; haveRowAsm being a false constant removes the call.

func readRowAVX2(tab []float32, hap genome.Seq, prev, cur *[3][]float32) {
	readRowLanes(tab, hap, prev, cur)
}
