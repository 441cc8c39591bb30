//go:build !amd64

package phmm

// No assembly body off amd64: the portable rows in lanes.go are the
// only path (on arm64 too — there is no arm64 host or emulator to
// execute an assembly twin under TestRowLanesMatchesRowQuad, and a
// kernel that has never run must not be the one tier whose answers
// could differ). The stub keeps the dispatch site compiling;
// haveRowAsm being a false constant removes the call.

const haveRowAsm = false

func rowPairAVX2(ri, rj *laneRow, prev, cur *[3][]float32, n int) {
	rowLanes(ri, prev, cur, n)
	rowLanes(rj, cur, prev, n)
}
