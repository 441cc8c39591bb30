//go:build !amd64

package phmm

// haveRowAsm reports whether rowLanes dispatches to an assembly
// kernel on this architecture.
const haveRowAsm = false

// rowLanes advances all eight lanes of one read position on the
// portable path: two register-blocked quad sweeps. arm64 runs this too:
// there is no arm64 host or emulator to execute an assembly twin under
// TestRowLanesMatchesRowQuad, and a kernel that has never run must not
// be the one tier whose answers could differ.
func rowLanes(rowMask []uint8, priorMatch, priorMismatch float32,
	prevM, prevI, prevD, curM, curI, curD []float32, n int) {
	rowQuad(rowMask, priorMatch, priorMismatch,
		&prevM[0], &prevI[0], &prevD[0], &curM[0], &curI[0], &curD[0], n, 0)
	rowQuad(rowMask, priorMatch, priorMismatch,
		&prevM[0], &prevI[0], &prevD[0], &curM[0], &curI[0], &curD[0], n, 4)
}
