// AVX2 kernel for the float64 read-lane row pair: the float32 kernel
// of readrow_amd64.s with PD ops and four reads per ymm. See
// readrow_amd64.go for the contract: bit-identical to running
// readRowQuad[float64] over read row i, then read row i+1, and so to
// forwardInto[float64] in every lane. The float64 pass has no floor:
// forwardInto's `if v < 0` never fires on the recurrence's
// non-negative values, so FLUSH is empty. Registers and the row step
// are in readrow_amd64.h; Y11 is unused.

#include "textflag.h"

#define VMUL VMULPD
#define VADD VADDPD
#define FLUSH(v, t)

#include "readrow_amd64.h"

// func readRowPair64Asm(prev, cur *[3][]float64, hap *byte, tab *float64, n int)
TEXT ·readRowPair64Asm(SB), NOSPLIT, $0-40
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

	VBROADCASTSD ·readK64+0(SB), Y12  // tmm
	VBROADCASTSD ·readK64+8(SB), Y13  // tim = tdm
	VBROADCASTSD ·readK64+16(SB), Y14 // tmi = tmd
	VBROADCASTSD ·readK64+24(SB), Y15 // tii = tdd

	// Column 0 of row i is the DP boundary, and the D chains start at
	// its zeros.
	VXORPD  Y4, Y4, Y4
	VMOVUPS Y4, (R9)
	VMOVUPS Y4, (R10)
	VMOVUPS Y4, (R11)
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7

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
