package phmm

import "repro/internal/cpufeat"

// Assembly fast path for the lane-batched row update: SSE2
// (row_amd64.s). The kernel replays rowQuad's per-lane arithmetic with
// packed 4-wide ops — same operations, same rounding order, same flush
// points, so its output is bit-identical to the pure-Go quad path
// (TestRowLanesMatchesRowQuad asserts exactly that). SSE2 is in the
// amd64 baseline, so the hardware always qualifies; dispatch still
// consults cpufeat so GBENCH_SIMD=off pins the portable quad path —
// every asm kernel in the suite has a forced-portable twin reachable
// without rebuilding.

// haveRowAsm reports whether rowLanes dispatches to an assembly
// kernel on this architecture (informational, used by tests/docs).
const haveRowAsm = true

// rowArgs is the flattened argument block for rowLanesAsm. Field
// offsets are fixed by the assembly — keep layout and the int64 n in
// sync with row_amd64.s.
type rowArgs struct {
	pPM, pPI, pPD *float32 // previous M/I/D rows (stride lanes.Width)
	pCM, pCI, pCD *float32 // current M/I/D rows
	mask          *uint8   // per-column 8-lane match bits, len n
	tab           *uint32  // &blendTab[0][0]: nibble -> 4-lane select mask
	n             int64    // columns (haplotype positions)
	prMatchM      float32  // priorMatch * tMM
	prMismM       float32  // priorMismatch * tMM
	prMatchG      float32  // priorMatch * tIM
	prMismG       float32  // priorMismatch * tIM
	tgo           float32  // tMI (== tMD)
	tge           float32  // tII (== tDD)
	floor         float32  // flushFloor32
}

// blendTab maps a 4-bit lane-match nibble to a 128-bit select mask:
// entry i, dword k is all-ones iff bit k of i is set. The amd64 kernel
// gathers one entry per nibble and selects between the match and
// mismatch prior vectors with AND/ANDN/OR.
var blendTab = func() (t [16][4]uint32) {
	for i := range t {
		for k := 0; k < 4; k++ {
			if i>>k&1 == 1 {
				t[i][k] = ^uint32(0)
			}
		}
	}
	return
}()

//go:noescape
func rowLanesAsm(a *rowArgs)

// rowLanes advances all eight lanes of one read position: column 0 of
// the current rows is zeroed and columns 1..n are filled from the
// previous rows, exactly as two rowQuad sweeps would. With the SIMD
// tier overridden off, it IS two rowQuad sweeps.
func rowLanes(rowMask []uint8, priorMatch, priorMismatch float32,
	prevM, prevI, prevD, curM, curI, curD []float32, n int) {
	if !cpufeat.Get().HasSSE2 {
		rowQuad(rowMask, priorMatch, priorMismatch,
			&prevM[0], &prevI[0], &prevD[0], &curM[0], &curI[0], &curD[0], n, 0)
		rowQuad(rowMask, priorMatch, priorMismatch,
			&prevM[0], &prevI[0], &prevD[0], &curM[0], &curI[0], &curD[0], n, 4)
		return
	}
	a := rowArgs{
		pPM: &prevM[0], pPI: &prevI[0], pPD: &prevD[0],
		pCM: &curM[0], pCI: &curI[0], pCD: &curD[0],
		mask: &rowMask[0], tab: &blendTab[0][0], n: int64(n),
		prMatchM: priorMatch * tmm32, prMismM: priorMismatch * tmm32,
		prMatchG: priorMatch * tim32, prMismG: priorMismatch * tim32,
		tgo: tmi32, tge: tii32, floor: flushFloor32,
	}
	rowLanesAsm(&a)
}
