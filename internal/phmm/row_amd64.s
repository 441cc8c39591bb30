// AVX2 kernel for the lane-batched PairHMM row update. See
// row_amd64.go for the contract: bit-identical to running rowQuad over
// both quads of read row i, then of read row i+1 (same per-lane
// operations in the same rounding order, same flush points, no fused
// multiply-add).
//
// One ymm holds one column's Lane8. Each loop step computes row i at
// column k (from row i-1 in the P rows, into the C rows) and then row
// i+1 at column k-1 (from the C rows, over row i-1 in the P rows):
// the two carried D chains are independent, so their latencies
// overlap. Row i has read P column k-1 before row i+1 overwrites it,
// and never reads a column below k-1 again.
//
// Register plan:
//   Y0-Y3   transients
//   Y4 lastM i     Y5 lastD i     Y6 lastM i+1   Y7 lastD i+1
//   Y8 prM table i   Y9 prG table i   Y10 prM table i+1   Y11 prG table i+1
//   Y12 lane shift counts   Y13 tge   Y14 tgo   Y15 flush floor
//   SI/DI/R8 P M/I/D   R9/R10/R11 C M/I/D
//   R12/R13 mask ends   BX column index minus n+1   DX byte offset of column k
//
// Column j lives at byte offset j*32.

#include "textflag.h"

// FLUSH(v, t) is flush4 on eight lanes: lanes of v below the floor
// become +0. NLT (predicate 5) is true for v >= floor and for NaN, so
// like the Go `if v < floor { v = 0 }` it leaves a NaN alone.
#define FLUSH(v, t) \
	VCMPPS $5, Y15, v, t; \
	VANDPS t, v, v

// ROW computes one column of one DP row. The predecessor row's
// diagonal and straight-up columns sit at byte offsets diag and up
// from DX in the s rows; the result is stored at offset up in the d
// rows. The mask byte, shifted right by l in lane l, indexes the
// {mismatch, match} pairs of the prior tables with its bit 0.
// VPERMILPS also reads bit 1 (lane l+1's match bit), which only picks
// between the two copies of the pair VBROADCASTSD put in each 128-bit
// half.
//   dj = flush(lastM*tgo + lastD*tge)
//   mj = flush(pMd*prM + (pDd+pId)*prG)
//   ij = flush(pMu*tgo + pIu*tge)
#define ROW(mask, diag, up, sM, sI, sD, dM, dI, dD, tabM, tabG, lastM, lastD) \
	VPBROADCASTB mask, Y0; \
	VPSRLVD      Y12, Y0, Y0; \
	VPERMILPS    Y0, tabM, Y1; \
	VPERMILPS    Y0, tabG, Y2; \
	VMULPS       Y14, lastM, Y3; \
	VMULPS       Y13, lastD, lastD; \
	VADDPS       lastD, Y3, lastD; \
	FLUSH(lastD, Y0); \
	VMULPS       diag(sM)(DX*1), Y1, lastM; \
	VMOVUPS      diag(sD)(DX*1), Y3; \
	VADDPS       diag(sI)(DX*1), Y3, Y3; \
	VMULPS       Y2, Y3, Y3; \
	VADDPS       Y3, lastM, lastM; \
	FLUSH(lastM, Y0); \
	VMULPS       up(sM)(DX*1), Y14, Y2; \
	VMULPS       up(sI)(DX*1), Y13, Y3; \
	VADDPS       Y3, Y2, Y2; \
	FLUSH(Y2, Y0); \
	VMOVUPS      lastM, up(dM)(DX*1); \
	VMOVUPS      Y2, up(dI)(DX*1); \
	VMOVUPS      lastD, up(dD)(DX*1)

// Row i at column k: P -> C.
#define ROWI ROW((R12)(BX*1), -32, 0, SI, DI, R8, R9, R10, R11, Y8, Y9, Y4, Y5)

// Row i+1 at column k-1: C -> P.
#define ROWJ ROW((R13)(BX*1), -64, -32, R9, R10, R11, SI, DI, R8, Y10, Y11, Y6, Y7)

// func rowPairAsm(a *pairArgs)
TEXT ·rowPairAsm(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), SI   // pM
	MOVQ 8(AX), DI   // pI
	MOVQ 16(AX), R8  // pD
	MOVQ 24(AX), R9  // cM
	MOVQ 32(AX), R10 // cI
	MOVQ 40(AX), R11 // cD
	MOVQ 48(AX), R12 // maskI
	MOVQ 56(AX), R13 // maskJ
	MOVQ 64(AX), BX  // n, at least 1

	// Column k reads maskI[k-1] and, for row i+1 at column k-1,
	// maskJ[k-2]; with BX = k-n-1 both are (end)(BX*1).
	LEAQ (R12)(BX*1), R12
	LEAQ -1(R13)(BX*1), R13
	NEGQ BX

	VBROADCASTSD 72(AX), Y8  // row i {mismM, matchM}
	VBROADCASTSD 80(AX), Y9  // row i {mismG, matchG}
	VBROADCASTSD 88(AX), Y10 // row i+1 {mismM, matchM}
	VBROADCASTSD 96(AX), Y11 // row i+1 {mismG, matchG}
	VMOVDQU      ·laneShift(SB), Y12
	VBROADCASTSS ·rowK+4(SB), Y13 // tge
	VBROADCASTSS ·rowK+0(SB), Y14 // tgo
	VBROADCASTSS ·rowK+8(SB), Y15 // floor

	// Column 0 of row i is the DP boundary, and the D chains start at
	// its zeros.
	VXORPS  Y4, Y4, Y4
	VMOVUPS Y4, (R9)
	VMOVUPS Y4, (R10)
	VMOVUPS Y4, (R11)
	VXORPS  Y5, Y5, Y5
	VXORPS  Y6, Y6, Y6
	VXORPS  Y7, Y7, Y7

	// Row i at column 1 reads P column 0; only then does row i+1's
	// boundary column overwrite it.
	MOVQ $32, DX
	ROWI
	VMOVUPS Y6, (SI)
	VMOVUPS Y6, (DI)
	VMOVUPS Y6, (R8)
	ADDQ    $32, DX
	INCQ    BX
	JZ      last

loop:
	ROWI
	ROWJ
	ADDQ $32, DX
	INCQ BX
	JNZ  loop

last:
	// Row i+1 at column n.
	ROWJ
	VZEROUPPER
	RET
