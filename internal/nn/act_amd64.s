// AVX2 bodies of the exact activation lanes; see act.go for the
// contract. Four float32 inputs per iteration, widened to float64 in a
// ymm. EXP is the avxfma path of go1.24's math/exp_amd64.s, its scalar
// registers X0, X1 and BX turned into Y0, Y1 and the four int32 of
// X2: the same operations on the same operands in the same order, so
// each lane rounds as math.Exp does (a product whose operands swap
// places is the same product). The kernels then finish the scalar
// function's float64 expression, narrow with VCVTPD2PS (the rounding of
// Go's float32 conversion) and store. A lane sweep must redo keeps its
// input: VBLENDVPS puts it back over the result before the store.

#include "textflag.h"

// Constant table: each entry is one 64-bit pattern four times over, so
// a ymm (or its low xmm) memory operand reads it whole. The exp
// constants are exp_amd64.s's literals; the tanh ones are math.tanh's.
#define SPLAT(off, val) \
	DATA actk<>+(off)(SB)/8, val; \
	DATA actk<>+(off+8)(SB)/8, val; \
	DATA actk<>+(off+16)(SB)/8, val; \
	DATA actk<>+(off+24)(SB)/8, val

#define kLOG2E 0
#define kLN2U 32
#define kLN2L 64
#define kSIXTEENTH 96
#define kC64 128
#define kC56 160
#define kC48 192
#define kC40 224
#define kC32 256
#define kC24 288
#define kHALF 320
#define kONE 352
#define kTWO 384
#define kBIAS 416
#define kABS64 448
#define kSIGN64 480
#define kABS32 512
#define k700F32 544
#define kTANHBIG 576
#define kTANHMID 608
#define kP0 640
#define kP1 672
#define kP2 704
#define kQ0 736
#define kQ1 768
#define kQ2 800

SPLAT(kLOG2E, $1.4426950408889634073599246810018920)
SPLAT(kLN2U, $0.69314718055966295651160180568695068359375)
SPLAT(kLN2L, $0.28235290563031577122588448175013436025525412068e-12)
SPLAT(kSIXTEENTH, $0.0625)
SPLAT(kC64, $2.4801587301587301587e-5)
SPLAT(kC56, $1.9841269841269841270e-4)
SPLAT(kC48, $1.3888888888888888889e-3)
SPLAT(kC40, $8.3333333333333333333e-3)
SPLAT(kC32, $4.1666666666666666667e-2)
SPLAT(kC24, $1.6666666666666666667e-1)
SPLAT(kHALF, $0.5)
SPLAT(kONE, $1.0)
SPLAT(kTWO, $2.0)
SPLAT(kBIAS, $0x000003ff000003ff)         // int32 0x3FF, the exponent bias
SPLAT(kABS64, $0x7fffffffffffffff)
SPLAT(kSIGN64, $0x8000000000000000)
SPLAT(kABS32, $0x7fffffff7fffffff)
SPLAT(k700F32, $0x442f0000442f0000)       // float32 700, act.go's redoAbove
SPLAT(kTANHBIG, $44.014845965556527147994) // 0.5*MAXLOG
SPLAT(kTANHMID, $0.625)
SPLAT(kP0, $-9.64399179425052238628e-1)
SPLAT(kP1, $-9.92877231001918586564e1)
SPLAT(kP2, $-1.61468768441708447952e3)
SPLAT(kQ0, $1.12811678491632931402e2)
SPLAT(kQ1, $2.23548839060100448583e3)
SPLAT(kQ2, $4.84406305325125486048e3)
GLOBL actk<>(SB), RODATA|NOPTR, $832

// EXP replaces each lane y of Y0 with math.Exp(y), for |y| <= 700:
// there archExp takes no branch after the FMA test (y*LOG2E rounds to
// k in [-1010, 1010], so k+0x3FF is a normal exponent). Clobbers Y1, Y2.
#define EXP \
	VMULPD       actk<>+kLOG2E(SB), Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD actk<>+kLN2U(SB), Y1, Y0; \
	VFNMADD231PD actk<>+kLN2L(SB), Y1, Y0; \
	VMULPD       actk<>+kSIXTEENTH(SB), Y0, Y0; \
	VMOVUPD      actk<>+kC64(SB), Y1; \
	VFMADD213PD  actk<>+kC56(SB), Y0, Y1; \
	VFMADD213PD  actk<>+kC48(SB), Y0, Y1; \
	VFMADD213PD  actk<>+kC40(SB), Y0, Y1; \
	VFMADD213PD  actk<>+kC32(SB), Y0, Y1; \
	VFMADD213PD  actk<>+kC24(SB), Y0, Y1; \
	VFMADD213PD  actk<>+kHALF(SB), Y0, Y1; \
	VFMADD213PD  actk<>+kONE(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       actk<>+kTWO(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       actk<>+kTWO(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       actk<>+kTWO(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       actk<>+kTWO(SB), Y0, Y1; \
	VFMADD213PD  actk<>+kONE(SB), Y1, Y0; \
	VPADDD       actk<>+kBIAS(SB), X2, X2; \
	VPMOVZXDQ    X2, Y1; \
	VPSLLQ       $52, Y1, Y1; \
	VMULPD       Y1, Y0, Y0

// SIGMOID64 replaces each lane x of Y0 with 1/(1+Exp(-x)), for
// |x| <= 700. Clobbers Y1, Y2.
#define SIGMOID64 \
	VXORPD  actk<>+kSIGN64(SB), Y0, Y0; \
	EXP; \
	VADDPD  actk<>+kONE(SB), Y0, Y0; \
	VMOVUPD actk<>+kONE(SB), Y1; \
	VDIVPD  Y0, Y1, Y0

// TANH64 leaves math.Tanh(x) in Y9 for each lane x of Y6 but NaN:
// math.tanh's three branches on every lane, then a blend in its order
// of precedence. |x| > 0.5*MAXLOG gives ±1. Else |x| >= 0.625 gives
// 1-2/(Exp(2|x|)+1) with x's sign (the value is positive, so negating
// it is setting the sign bit); every exp argument that reaches a
// result is 2|x| in [1.25, 88.03]. Else ±0 is returned as is, and
// anything else is x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2) with
// s = x*x. Needs Y15 zero; clobbers Y0-Y2, Y7 (|x|), Y8 (x's sign
// bit), Y10 (P), Y11 (Q), Y12 (masks).
#define TANH64 \
	VANDPD    actk<>+kABS64(SB), Y6, Y7; \
	VANDPD    actk<>+kSIGN64(SB), Y6, Y8; \
	VMULPD    Y6, Y6, Y9; \
	VMULPD    actk<>+kP0(SB), Y9, Y10; \
	VADDPD    actk<>+kP1(SB), Y10, Y10; \
	VMULPD    Y9, Y10, Y10; \
	VADDPD    actk<>+kP2(SB), Y10, Y10; \
	VADDPD    actk<>+kQ0(SB), Y9, Y11; \
	VMULPD    Y9, Y11, Y11; \
	VADDPD    actk<>+kQ1(SB), Y11, Y11; \
	VMULPD    Y9, Y11, Y11; \
	VADDPD    actk<>+kQ2(SB), Y11, Y11; \
	VMULPD    Y9, Y6, Y9; \
	VMULPD    Y10, Y9, Y9; \
	VDIVPD    Y11, Y9, Y9; \
	VADDPD    Y9, Y6, Y9; \
	VCMPPD    $0x00, Y15, Y6, Y12; \
	VBLENDVPD Y12, Y6, Y9, Y9; \
	VMULPD    actk<>+kTWO(SB), Y7, Y0; \
	EXP; \
	VADDPD    actk<>+kONE(SB), Y0, Y0; \
	VMOVUPD   actk<>+kTWO(SB), Y1; \
	VDIVPD    Y0, Y1, Y0; \
	VMOVUPD   actk<>+kONE(SB), Y1; \
	VSUBPD    Y0, Y1, Y0; \
	VXORPD    Y8, Y0, Y0; \
	VCMPPD    $0x1d, actk<>+kTANHMID(SB), Y7, Y12; \
	VBLENDVPD Y12, Y0, Y9, Y9; \
	VXORPD    actk<>+kONE(SB), Y8, Y0; \
	VCMPPD    $0x1e, actk<>+kTANHBIG(SB), Y7, Y12; \
	VBLENDVPD Y12, Y0, Y9, Y9

// STORE puts the flagged inputs (X4 under the X5 mask) back over the
// results in X0, stores them, accumulates the flags in DX, and loops
// while CX < BX.
#define STORE(loop) \
	VBLENDVPS X5, X4, X0, X0; \
	VMOVUPS   X0, (DI)(CX*1); \
	VMOVMSKPS X5, AX; \
	ORL       AX, DX; \
	ADDQ      $16, CX; \
	CMPQ      CX, BX; \
	JLT       loop

// PROLOGUE: DI dst, SI src, BX the byte length of elements of size
// 1<<shift, CX the byte offset, DX the flags.
#define PROLOGUE(shift) \
	MOVQ dst_base+0(FP), DI; \
	MOVQ src_base+24(FP), SI; \
	MOVQ src_len+32(FP), BX; \
	SHLQ $shift, BX; \
	XORQ CX, CX; \
	XORL DX, DX

#define EPILOGUE \
	VZEROUPPER; \
	TESTL DX, DX; \
	SETNE redo+48(FP); \
	RET

// SIGMOID loads four inputs into X4, flags in X5 the lanes with
// !(|x| <= 700) (NaN included), and leaves float32(1/(1+Exp(-x))) in
// X0.
#define SIGMOID \
	VMOVUPS    (SI)(CX*1), X4; \
	VANDPS     actk<>+kABS32(SB), X4, X5; \
	VCMPPS     $0x16, actk<>+k700F32(SB), X5, X5; \
	VCVTPS2PD  X4, Y0; \
	SIGMOID64; \
	VCVTPD2PSY Y0, X0

// func sigmoidAsm(dst, src []float32) (redo bool)
TEXT ·sigmoidAsm(SB), NOSPLIT, $0-49
	PROLOGUE(2)
sigloop:
	SIGMOID
	STORE(sigloop)
	EPILOGUE

// func swishAsm(dst, src []float32) (redo bool)
// x * Sigmoid(x): one float32 multiply after the narrowing.
TEXT ·swishAsm(SB), NOSPLIT, $0-49
	PROLOGUE(2)
swishloop:
	SIGMOID
	VMULPS X4, X0, X0
	STORE(swishloop)
	EPILOGUE

// func tanhAsm(dst, src []float32) (redo bool)
// Only NaN lanes are flagged.
TEXT ·tanhAsm(SB), NOSPLIT, $0-49
	PROLOGUE(2)
	VXORPD Y15, Y15, Y15
tanhloop:
	VMOVUPS    (SI)(CX*1), X4
	VCMPPS     $0x03, X4, X4, X5
	VCVTPS2PD  X4, Y6
	TANH64
	VCVTPD2PSY Y9, X0
	STORE(tanhloop)
	EPILOGUE

// The float64 cores on their own, four float64 lanes per iteration,
// for act_amd64_test.go: a slip in an operation moves a float64 result
// by an ulp far more often than it moves a float32 one.

// func sigmoid64Asm(dst, src []float64)
TEXT ·sigmoid64Asm(SB), NOSPLIT, $0-48
	PROLOGUE(3)
sig64loop:
	VMOVUPD (SI)(CX*1), Y0
	SIGMOID64
	VMOVUPD Y0, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JLT     sig64loop
	VZEROUPPER
	RET

// func tanh64Asm(dst, src []float64)
TEXT ·tanh64Asm(SB), NOSPLIT, $0-48
	PROLOGUE(3)
	VXORPD Y15, Y15, Y15
tanh64loop:
	VMOVUPD (SI)(CX*1), Y6
	TANH64
	VMOVUPD Y9, (DI)(CX*1)
	ADDQ    $32, CX
	CMPQ    CX, BX
	JLT     tanh64loop
	VZEROUPPER
	RET
