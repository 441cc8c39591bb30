package phmm

import (
	"unsafe"

	"repro/internal/genome"
)

// AVX2 kernels for the read-lane row pair: readrow_amd64.s (float32,
// eight reads per ymm) and readrow64_amd64.s (float64, four), one
// column's lanes per ymm and two read rows per call, the second one
// column behind the first. Both replay readRowQuad's per-lane
// arithmetic — forwardInto's expressions in forwardInto's order — with
// packed ops: same operations, same rounding order, same flush points
// (none in float64), no FMA. Each lane is therefore bit-identical to
// the scalar pass in its precision (FuzzForwardReads, FuzzForwardReads64
// and TestEvaluateRegionIntoDifferential assert exactly that).
// forwardReads gates the kernels on cpufeat.AVX2(), so GBENCH_SIMD=off
// runs the portable rows.

// readK and readK64 hold the kernels' broadcast constants;
// readrow_amd64.s and readrow64_amd64.s address them by index. tIM ==
// tDM, tMI == tMD and tII == tDD (each pair is one expression of the
// gap model), so one register serves each pair.
var (
	readK   = [5]float32{tmm32, tim32, tmi32, tii32, flushFloor32}
	readK64 = [4]float64{tMM, tIM, tMI, tII}
)

//go:noescape
func readRowPairAsm(prev, cur *[3][]float32, hap *byte, tab *float32, n int)

//go:noescape
func readRowPair64Asm(prev, cur *[3][]float64, hap *byte, tab *float64, n int)

// readRowPairAVX2 is readRowPair's AVX2 body; readRowPair proved the
// bounds. F picks the kernel.
func readRowPairAVX2[F Float](tab []F, hap genome.Seq, prev, cur *[3][]F) {
	if unsafe.Sizeof(tab[0]) == 4 {
		readRowPairAsm((*[3][]float32)(unsafe.Pointer(prev)), (*[3][]float32)(unsafe.Pointer(cur)),
			&hap[0], (*float32)(unsafe.Pointer(&tab[0])), len(hap))
		return
	}
	readRowPair64Asm((*[3][]float64)(unsafe.Pointer(prev)), (*[3][]float64)(unsafe.Pointer(cur)),
		&hap[0], (*float64)(unsafe.Pointer(&tab[0])), len(hap))
}
