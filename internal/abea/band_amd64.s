// AVX2 bodies of abea's band sweep and band arg-max; see lanes.go for
// the contract. Both walk their operand eight float32 cells at a time
// and finish with the last full vector at byte offset 4n-32, which
// covers a ragged tail by overlapping cells already done (a band cell
// reads only earlier bands, so the overlap stores equal values) and is
// simply the last vector when n is a multiple of eight. Callers
// guarantee n >= 8.
//
// Identity with the portable body, per lane: VMULPS rounds before the
// VSUBPS/VADDPS that follows it, in the Go expression's order — there
// is no fused multiply-add in this file; z is a real VDIVPS, not a
// reciprocal estimate; and VMAXPS returns its SECOND source on a tie,
// on +-0 and on NaN, so with the challenger first and the incumbent
// second (Go assembler order: incumbent, challenger, dst) it is Go's
// `if b > a { a = b }`.

#include "textflag.h"

// CELLS8 computes the eight cells at byte offset DX:
//   z    = (x - mu) / sd
//   emit = (-0.5 * z) * z - ls - log sqrt(2 pi)
//   stay = up + lpStay + emit
//   step = diag + lpStep + emit
//   skip = left + lpSkip
//   cell = stay; if step > cell { cell = step }; if skip > cell { cell = skip }
#define CELLS8 \
	VMOVUPS (SI)(DX*1), Y0; \
	VSUBPS  (DI)(DX*1), Y0, Y0; \
	VDIVPS  (R8)(DX*1), Y0, Y0; \
	VMULPS  Y0, Y11, Y1; \
	VMULPS  Y0, Y1, Y1; \
	VSUBPS  (R9)(DX*1), Y1, Y1; \
	VSUBPS  Y12, Y1, Y1; \
	VMOVUPS (R10)(DX*1), Y2; \
	VADDPS  Y13, Y2, Y2; \
	VADDPS  Y1, Y2, Y2; \
	VMOVUPS (R12)(DX*1), Y3; \
	VADDPS  Y14, Y3, Y3; \
	VADDPS  Y1, Y3, Y3; \
	VMOVUPS (R11)(DX*1), Y4; \
	VADDPS  Y15, Y4, Y4; \
	VMAXPS  Y2, Y3, Y2; \
	VMAXPS  Y2, Y4, Y2; \
	VMOVUPS Y2, (R13)(DX*1)

// Register plan:
//   SI x   DI mu   R8 sd   R9 ls   R10 up   R11 left   R12 diag   R13 dst
//   DX byte offset   BX last full-vector offset (4n-32)
//   Y0 z   Y1 emit   Y2 stay, then the cell   Y3 step   Y4 skip
//   Y11 -0.5   Y12 log sqrt(2 pi)   Y13 lpStay   Y14 lpStep   Y15 lpSkip

// func bandSweepAsm(a *bandArgs)
TEXT ·bandSweepAsm(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), SI
	MOVQ 8(AX), DI
	MOVQ 16(AX), R8
	MOVQ 24(AX), R9
	MOVQ 32(AX), R10
	MOVQ 40(AX), R11
	MOVQ 48(AX), R12
	MOVQ 56(AX), R13
	MOVQ 64(AX), BX
	SHLQ $2, BX
	SUBQ $32, BX
	VBROADCASTSS ·bandK+0(SB), Y13
	VBROADCASTSS ·bandK+4(SB), Y14
	VBROADCASTSS ·bandK+8(SB), Y15
	VBROADCASTSS ·bandK+12(SB), Y11
	VBROADCASTSS ·bandK+16(SB), Y12
	XORQ DX, DX
	JMP  sweepnext

sweep:
	CELLS8
	ADDQ $32, DX

sweepnext:
	CMPQ DX, BX
	JLT  sweep
	MOVQ BX, DX
	CELLS8
	VZEROUPPER
	RET

// func bandArgmaxAsm(p *float32, n int, seed float32) int
// The lowest index holding the maximum of p[0:n], or 0 when no cell
// exceeds seed: a max-reduce seeded with seed (a NaN cell never
// replaces the incumbent), then the first lane equal to the maximum.
TEXT ·bandArgmaxAsm(SB), NOSPLIT, $0-32
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), BX
	SHLQ $2, BX
	SUBQ $32, BX
	VBROADCASTSS seed+16(FP), Y0
	XORQ DX, DX
	JMP  maxnext

maxloop:
	VMOVUPS (SI)(DX*1), Y1
	VMAXPS  Y0, Y1, Y0
	ADDQ    $32, DX

maxnext:
	CMPQ DX, BX
	JLT  maxloop
	VMOVUPS (SI)(BX*1), Y1
	VMAXPS  Y0, Y1, Y0

	// Eight running maxima to one, in every lane of Y0.
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X0, X1, X0
	VPERMILPS    $0x4E, X0, X1
	VMAXPS       X0, X1, X0
	VPERMILPS    $0xB1, X0, X1
	VMAXPS       X0, X1, X0
	VBROADCASTSS X0, Y0

	XORQ     AX, AX
	VUCOMISS seed+16(FP), X0
	JEQ      done // nothing beat the seed: offset 0

	XORQ DX, DX
	JMP  findnext

find:
	VCMPPS    $0, (SI)(DX*1), Y0, Y1 // EQ_OQ
	VMOVMSKPS Y1, AX
	TESTL     AX, AX
	JNZ       found
	ADDQ      $32, DX

findnext:
	CMPQ DX, BX
	JLT  find
	MOVQ BX, DX
	VCMPPS    $0, (SI)(DX*1), Y0, Y1
	VMOVMSKPS Y1, AX

found:
	BSFL AX, AX
	SHRQ $2, DX
	ADDQ DX, AX

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
