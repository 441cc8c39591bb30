// AVX2 bodies of the f32 accumulate microkernel; see accum.go for the
// contract. The output block lives in YMM accumulators across the
// whole k loop: a 4-row x 16-column tile (8 accumulators, the two B
// vectors of a k loaded once for the four rows) while at least four
// rows remain, then a 1-row x 64/32/16/8-column tile for the rest —
// which is also the shape of an LSTM gate update (one row, 4*H
// columns). One accumulator per element, k ascending, a[k] == +-0
// skipped, and VMULPS then VADDPS: there is no fused multiply-add in
// this file, so every lane rounds twice, as the portable body does.

#include "textflag.h"

// REMAIN leaves the bytes of the row still to the right of column
// offset CX in R13.
#define REMAIN \
	MOVQ a+0(FP), R13; \
	MOVQ 64(R13), R13; \
	SHLQ $2, R13; \
	SUBQ CX, R13

// ROW2 is one row of the 4x16 tile for one k: skip when the row's
// a[k] is +-0 (its bits shifted left once are zero), else broadcast
// it and update the row's two accumulators from B in Y12/Y13.
#define ROW2(aaddr, acc0, acc1, skip) \
	MOVL aaddr, R13; \
	ADDL R13, R13; \
	JZ   skip; \
	VBROADCASTSS aaddr, Y15; \
	VMULPS Y12, Y15, Y14; \
	VADDPS Y14, acc0, acc0; \
	VMULPS Y13, Y15, Y14; \
	VADDPS Y14, acc1, acc1

// ROW1 is ROW2 for the 4x8 tile (B in Y12 only).
#define ROW1(aaddr, acc0, skip) \
	MOVL aaddr, R13; \
	ADDL R13, R13; \
	JZ   skip; \
	VBROADCASTSS aaddr, Y15; \
	VMULPS Y12, Y15, Y14; \
	VADDPS Y14, acc0, acc0

// MULADD updates one accumulator of a 1-row tile from B in memory,
// the row's a[k] already broadcast in Y15.
#define MULADD(off, acc) \
	VMULPS off(R14), Y15, Y14; \
	VADDPS Y14, acc, acc

// KHEAD1/KTAIL1 bracket the k loop body of a 1-row tile.
#define KHEAD1(skip) \
	MOVL (AX), R13; \
	ADDL R13, R13; \
	JZ   skip; \
	VBROADCASTSS (AX), Y15

#define KTAIL1(loop) \
	ADDQ $4, AX; \
	ADDQ R10, R14; \
	DECQ R15; \
	JNZ  loop

// Register plan:
//   SI dst, DI a (both at the current row group)   BX b
//   R8 ldd   R9 lda   R10 ldb (bytes)   R12 k      CX column byte offset
//   DX dst tile   AX, R11 a cursors   R14 b cursor   R15 k countdown
//   R13 scratch (zero test, REMAIN)
//   Y0-Y7 accumulators   Y12, Y13 B   Y14 product   Y15 a[k] splat
// rows left lives in the argument block (+48).

// func accRowsAsm(a *accArgs)
TEXT ·accRowsAsm(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), R13
	MOVQ 0(R13), SI
	MOVQ 8(R13), DI
	MOVQ 16(R13), BX
	MOVQ 24(R13), R8
	MOVQ 32(R13), R9
	MOVQ 40(R13), R10
	MOVQ 56(R13), R12

rows4:
	MOVQ a+0(FP), R13
	MOVQ 48(R13), DX
	CMPQ DX, $4
	JLT  rows1
	SUBQ $4, DX
	MOVQ DX, 48(R13)
	XORQ CX, CX

r4c16:
	REMAIN
	CMPQ R13, $64
	JLT  r4c8
	LEAQ (SI)(CX*1), DX
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS (DX)(R8*1), Y2
	VMOVUPS 32(DX)(R8*1), Y3
	VMOVUPS (DX)(R8*2), Y4
	VMOVUPS 32(DX)(R8*2), Y5
	ADDQ R8, DX
	VMOVUPS (DX)(R8*2), Y6
	VMOVUPS 32(DX)(R8*2), Y7
	MOVQ DI, AX
	LEAQ (DI)(R9*2), R11
	LEAQ (BX)(CX*1), R14
	MOVQ R12, R15
k4x2:
	VMOVUPS (R14), Y12
	VMOVUPS 32(R14), Y13
	ROW2((AX), Y0, Y1, k4x2r1)
k4x2r1:
	ROW2((AX)(R9*1), Y2, Y3, k4x2r2)
k4x2r2:
	ROW2((R11), Y4, Y5, k4x2r3)
k4x2r3:
	ROW2((R11)(R9*1), Y6, Y7, k4x2n)
k4x2n:
	ADDQ $4, AX
	ADDQ $4, R11
	ADDQ R10, R14
	DECQ R15
	JNZ  k4x2
	LEAQ (SI)(CX*1), DX
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, (DX)(R8*1)
	VMOVUPS Y3, 32(DX)(R8*1)
	VMOVUPS Y4, (DX)(R8*2)
	VMOVUPS Y5, 32(DX)(R8*2)
	ADDQ R8, DX
	VMOVUPS Y6, (DX)(R8*2)
	VMOVUPS Y7, 32(DX)(R8*2)
	ADDQ $64, CX
	JMP  r4c16

r4c8:
	CMPQ R13, $32
	JLT  r4next
	LEAQ (SI)(CX*1), DX
	VMOVUPS (DX), Y0
	VMOVUPS (DX)(R8*1), Y2
	VMOVUPS (DX)(R8*2), Y4
	ADDQ R8, DX
	VMOVUPS (DX)(R8*2), Y6
	MOVQ DI, AX
	LEAQ (DI)(R9*2), R11
	LEAQ (BX)(CX*1), R14
	MOVQ R12, R15
k4x1:
	VMOVUPS (R14), Y12
	ROW1((AX), Y0, k4x1r1)
k4x1r1:
	ROW1((AX)(R9*1), Y2, k4x1r2)
k4x1r2:
	ROW1((R11), Y4, k4x1r3)
k4x1r3:
	ROW1((R11)(R9*1), Y6, k4x1n)
k4x1n:
	ADDQ $4, AX
	ADDQ $4, R11
	ADDQ R10, R14
	DECQ R15
	JNZ  k4x1
	LEAQ (SI)(CX*1), DX
	VMOVUPS Y0, (DX)
	VMOVUPS Y2, (DX)(R8*1)
	VMOVUPS Y4, (DX)(R8*2)
	ADDQ R8, DX
	VMOVUPS Y6, (DX)(R8*2)

r4next:
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R9*4), DI
	JMP  rows4

rows1:
	TESTQ DX, DX
	JZ   done
	DECQ DX
	MOVQ DX, 48(R13)
	XORQ CX, CX

r1c64:
	REMAIN
	CMPQ R13, $256
	JLT  r1c32
	LEAQ (SI)(CX*1), DX
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS 64(DX), Y2
	VMOVUPS 96(DX), Y3
	VMOVUPS 128(DX), Y4
	VMOVUPS 160(DX), Y5
	VMOVUPS 192(DX), Y6
	VMOVUPS 224(DX), Y7
	MOVQ DI, AX
	LEAQ (BX)(CX*1), R14
	MOVQ R12, R15
k1x8:
	KHEAD1(k1x8n)
	MULADD(0, Y0)
	MULADD(32, Y1)
	MULADD(64, Y2)
	MULADD(96, Y3)
	MULADD(128, Y4)
	MULADD(160, Y5)
	MULADD(192, Y6)
	MULADD(224, Y7)
k1x8n:
	KTAIL1(k1x8)
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VMOVUPS Y4, 128(DX)
	VMOVUPS Y5, 160(DX)
	VMOVUPS Y6, 192(DX)
	VMOVUPS Y7, 224(DX)
	ADDQ $256, CX
	JMP  r1c64

r1c32:
	CMPQ R13, $128
	JLT  r1c16
	LEAQ (SI)(CX*1), DX
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS 64(DX), Y2
	VMOVUPS 96(DX), Y3
	MOVQ DI, AX
	LEAQ (BX)(CX*1), R14
	MOVQ R12, R15
k1x4:
	KHEAD1(k1x4n)
	MULADD(0, Y0)
	MULADD(32, Y1)
	MULADD(64, Y2)
	MULADD(96, Y3)
k1x4n:
	KTAIL1(k1x4)
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	ADDQ $128, CX

r1c16:
	REMAIN
	CMPQ R13, $64
	JLT  r1c8
	LEAQ (SI)(CX*1), DX
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	MOVQ DI, AX
	LEAQ (BX)(CX*1), R14
	MOVQ R12, R15
k1x2:
	KHEAD1(k1x2n)
	MULADD(0, Y0)
	MULADD(32, Y1)
k1x2n:
	KTAIL1(k1x2)
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ $64, CX

r1c8:
	REMAIN
	CMPQ R13, $32
	JLT  r1next
	LEAQ (SI)(CX*1), DX
	VMOVUPS (DX), Y0
	MOVQ DI, AX
	LEAQ (BX)(CX*1), R14
	MOVQ R12, R15
k1x1:
	KHEAD1(k1x1n)
	MULADD(0, Y0)
k1x1n:
	KTAIL1(k1x1)
	VMOVUPS Y0, (DX)

r1next:
	ADDQ R8, SI
	ADDQ R9, DI
	MOVQ a+0(FP), R13
	MOVQ 48(R13), DX
	JMP  rows1

done:
	VZEROUPPER
	RET

// func mulAccRowsAsm(a *mulAccArgs)
// dst[i][j] += x[i][j] * y[j], eight columns at a time: the product
// rounds in Y0 before the add sees it.
TEXT ·mulAccRowsAsm(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), DI
	MOVQ 8(AX), SI
	MOVQ 16(AX), BX
	MOVQ 24(AX), R8
	MOVQ 32(AX), R9
	MOVQ 40(AX), R10
	MOVQ 48(AX), R11
	SHLQ $2, R11
mrow:
	XORQ CX, CX
mcol:
	VMOVUPS (SI)(CX*1), Y0
	VMULPS (BX)(CX*1), Y0, Y0
	VMOVUPS (DI)(CX*1), Y1
	VADDPS Y0, Y1, Y1
	VMOVUPS Y1, (DI)(CX*1)
	ADDQ $32, CX
	CMPQ CX, R11
	JLT  mcol
	ADDQ R8, DI
	ADDQ R9, SI
	DECQ R10
	JNZ  mrow
	VZEROUPPER
	RET
