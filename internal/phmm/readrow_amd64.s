// AVX2 kernel for the float32 read-lane row pair. See readrow_amd64.go
// for the contract: bit-identical to running readRowQuad over both
// quads of read row i, then of read row i+1 (same per-lane operations
// in the same rounding order, same flush points, no fused
// multiply-add), and so to forwardInto in every lane.
//
// One ymm holds one column's eight lanes: eight reads at one haplotype
// position. Each loop step computes row i at column k (from row i-1 in
// the P rows, into the C rows) and then row i+1 at column k-1 (from the
// C rows, over row i-1 in the P rows): the two carried D chains are
// independent, so their latencies overlap. Row i has read P column k-1
// before row i+1 overwrites it, and never reads a column below k-1
// again. Registers and the row step are in readrow_amd64.h.

#include "textflag.h"

#define VMUL VMULPS
#define VADD VADDPS

// FLUSH(v, t) is the float32 flush on eight lanes: lanes of v below the
// floor become +0. NLT (predicate 5) is true for v >= floor and for
// NaN, so like the Go `if v < floor { v = 0 }` it leaves a NaN alone.
#define FLUSH(v, t) \
	VCMPPS $5, Y11, v, t; \
	VANDPS t, v, v

#include "readrow_amd64.h"

// func readRowPairAsm(prev, cur *[3][]float32, hap *byte, tab *float32, n int)
TEXT ·readRowPairAsm(SB), NOSPLIT, $0-40
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
