package phmm

import "repro/internal/genome"

// AVX2 kernel for the read-lane row update (readrow_amd64.s): one ymm
// per column's Lane8, one read row per call. It replays readRowQuad's
// per-lane arithmetic — forwardInto's expressions in forwardInto's
// order — with packed 8-wide ops: same operations, same rounding
// order, same flush points, no FMA. Each lane is therefore
// bit-identical to the scalar pass (FuzzForwardReads and
// TestEvaluateRegionIntoDifferential assert exactly that). forwardReads
// gates the kernel on cpufeat.AVX2(), so GBENCH_SIMD=off runs the
// portable rows.

// readK holds the kernel's five broadcast constants; readrow_amd64.s
// addresses them by index. As float32 values tIM == tDM, tMI == tMD
// and tII == tDD (each pair is one expression of the gap model), so one
// register serves each pair.
var readK = [5]float32{tmm32, tim32, tmi32, tii32, flushFloor32}

//go:noescape
func readRowAsm(prev, cur *[3][]float32, hap *byte, tab *float32, n int)

// readRowAVX2 is readRow's AVX2 body; readRow proved the bounds.
func readRowAVX2(tab []float32, hap genome.Seq, prev, cur *[3][]float32) {
	readRowAsm(prev, cur, &hap[0], &tab[0], len(hap))
}
