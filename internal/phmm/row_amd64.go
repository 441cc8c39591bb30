package phmm

import "repro/internal/lanes"

// AVX2 kernel for the lane-batched row update (row_amd64.s): one ymm
// per Lane8, two read rows per call. It replays rowQuad's per-lane
// arithmetic with packed 8-wide ops — same operations, same rounding
// order, same flush points, no FMA — so its output is bit-identical to
// the pure-Go rows it replaces (TestRowLanesMatchesRowQuad asserts
// exactly that). AVX2 is not in the amd64 baseline: forwardLanes gates
// the kernel on cpufeat.AVX2(), which folds in the CPUID/XCR0 probe and
// the GBENCH_SIMD override, so GBENCH_SIMD=sse2|off run the portable
// rows.

const haveRowAsm = true

// rowK holds the kernel's three broadcast constants; row_amd64.s
// addresses them by index.
var rowK = [3]float32{tmi32, tii32, flushFloor32}

// laneShift moves bit l of a broadcast mask byte to bit 0 of lane l,
// the bit that picks mismatch or match from a rowPriors pair.
var laneShift = [8]uint32{0, 1, 2, 3, 4, 5, 6, 7}

// pairArgs is the flattened argument block for rowPairAsm. Field
// offsets are fixed by the assembly — keep layout in sync with
// row_amd64.s.
type pairArgs struct {
	pM, pI, pD *float32     // +0: row i-1 on entry, row i+1 on return
	cM, cI, cD *float32     // +24: row i
	maskI      *uint8       // +48: row i's per-column match bits, len n
	maskJ      *uint8       // +56: row i+1's
	n          int64        // +64: columns, at least 1
	pr         [2]rowPriors // +72: row i's, +88: row i+1's
}

// rowPriors are one read row's emission priors with the M-update
// transition folded in — rowQuad's prM and prG tables, in the same
// {mismatch, match} order.
type rowPriors struct {
	prM, prG [2]float32
}

func priorsOf(r *laneRow) rowPriors {
	return rowPriors{
		prM: [2]float32{r.priorMismatch * tmm32, r.priorMatch * tmm32},
		prG: [2]float32{r.priorMismatch * tim32, r.priorMatch * tim32},
	}
}

//go:noescape
func rowPairAsm(a *pairArgs)

// rowPairAVX2 is rowPair's AVX2 body: row ri from prev into cur, then
// row rj from cur over prev.
func rowPairAVX2(ri, rj *laneRow, prev, cur *[3][]float32, n int) {
	// The assembly runs unchecked: every row must cover columns 0..n.
	w := (n+1)*lanes.Width - 1
	_, _, _, _, _, _ = prev[0][w], prev[1][w], prev[2][w], cur[0][w], cur[1][w], cur[2][w]
	_, _ = ri.mask[n-1], rj.mask[n-1]
	a := pairArgs{
		pM: &prev[0][0], pI: &prev[1][0], pD: &prev[2][0],
		cM: &cur[0][0], cI: &cur[1][0], cD: &cur[2][0],
		maskI: &ri.mask[0], maskJ: &rj.mask[0], n: int64(n),
		pr: [2]rowPriors{priorsOf(ri), priorsOf(rj)},
	}
	rowPairAsm(&a)
}
