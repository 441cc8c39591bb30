// AVX2 kernel for the read-lane PairHMM row update. See
// readrow_amd64.go for the contract: bit-identical to running
// readRowQuad over both quads of one read row (same per-lane
// operations in the same rounding order, same flush points, no fused
// multiply-add), and so to forwardInto in every lane.
//
// One ymm holds one column's Lane8: eight reads at one haplotype
// position. Each loop step computes column k of row i from row i-1 in
// the P rows into the C rows: D first (it needs only column k-1 of
// row i, carried in registers), then M from P's diagonal column and I
// from P's column k.
//
// Register plan:
//   Y0-Y3   transients
//   Y4 lastM   Y5 lastD   Y6 prior
//   Y11 flush floor   Y12 tmm   Y13 tim = tdm   Y14 tmi = tmd   Y15 tii = tdd
//   SI/DI/R8 P M/I/D   R9/R10/R11 C M/I/D
//   R12 haplotype end   R13 prior table   BX column index minus n+1
//   DX byte offset of column k   AX table offset of hap[k-1]
//
// Column j lives at byte offset j*32; the prior table holds one Lane8
// per base, base b at byte offset b*32.

#include "textflag.h"

// FLUSH(v, t) is flush4 on eight lanes: lanes of v below the floor
// become +0. NLT (predicate 5) is true for v >= floor and for NaN, so
// like the Go `if v < floor { v = 0 }` it leaves a NaN alone.
#define FLUSH(v, t) \
	VCMPPS $5, Y11, v, t; \
	VANDPS t, v, v

// func readRowAsm(prev, cur *[3][]float32, hap *byte, tab *float32, n int)
TEXT ·readRowAsm(SB), NOSPLIT, $0-40
	MOVQ prev+0(FP), AX
	MOVQ 0(AX), SI   // prev[0]: M
	MOVQ 24(AX), DI  // prev[1]: I
	MOVQ 48(AX), R8  // prev[2]: D
	MOVQ cur+8(FP), AX
	MOVQ 0(AX), R9
	MOVQ 24(AX), R10
	MOVQ 48(AX), R11
	MOVQ hap+16(FP), R12
	MOVQ tab+24(FP), R13
	MOVQ n+32(FP), BX // at least 1

	// Column k reads hap[k-1]; with BX = k-n-1 that is (end)(BX*1).
	LEAQ (R12)(BX*1), R12
	NEGQ BX

	VBROADCASTSS ·readK+0(SB), Y12  // tmm
	VBROADCASTSS ·readK+4(SB), Y13  // tim = tdm
	VBROADCASTSS ·readK+8(SB), Y14  // tmi = tmd
	VBROADCASTSS ·readK+12(SB), Y15 // tii = tdd
	VBROADCASTSS ·readK+16(SB), Y11 // floor

	// Column 0 is the DP boundary, and the D chain starts at its zeros.
	VXORPS  Y4, Y4, Y4
	VXORPS  Y5, Y5, Y5
	VMOVUPS Y4, (R9)
	VMOVUPS Y4, (R10)
	VMOVUPS Y4, (R11)
	MOVQ    $32, DX

loop:
	MOVBLZX (R12)(BX*1), AX
	ANDL    $3, AX
	SHLL    $5, AX
	VMOVUPS (R13)(AX*1), Y6

	// dj = flush(tmd*lastM + tdd*lastD)
	VMULPS Y14, Y4, Y3
	VMULPS Y15, Y5, Y5
	VADDPS Y5, Y3, Y5
	FLUSH(Y5, Y0)

	// mj = flush(prior*((tmm*pM + tim*pI) + tdm*pD)), diagonal column
	VMULPS -32(SI)(DX*1), Y12, Y1
	VMULPS -32(DI)(DX*1), Y13, Y2
	VADDPS Y2, Y1, Y1
	VMULPS -32(R8)(DX*1), Y13, Y2
	VADDPS Y2, Y1, Y1
	VMULPS Y1, Y6, Y4
	FLUSH(Y4, Y0)

	// ij = flush(tmi*pM + tii*pI), column k
	VMULPS (SI)(DX*1), Y14, Y1
	VMULPS (DI)(DX*1), Y15, Y2
	VADDPS Y2, Y1, Y1
	FLUSH(Y1, Y0)

	VMOVUPS Y4, (R9)(DX*1)
	VMOVUPS Y1, (R10)(DX*1)
	VMOVUPS Y5, (R11)(DX*1)
	ADDQ    $32, DX
	INCQ    BX
	JNZ     loop

	VZEROUPPER
	RET
