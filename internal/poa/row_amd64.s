// AVX2 16-wide row kernel for the POA lane sweep. One ymm register
// holds one 16-column group of saturating int16 DP cells; see
// row_wide.go for the kernel contract and the proof sketch that the
// prefix-max gap scan below is bit-identical to the portable serial
// chain for gap in [-4096, 0].
//
// Carry off the scan: each group scans its own vertical candidates,
// and the left-chain carry (the finished column j0-1) is folded in
// after: final[l] = max(g[l], sat(carry + (l+1)*gap)). The scan runs
// in offset binary (x ^ 0x8000: signed order becomes unsigned order,
// the -32768 sentinel becomes 0, and sat(x + k*gap) becomes one
// VPSUBUSW by k*|gap|), so in-lane byte shifts fill with the sentinel
// for free. The carry stays in a register as a broadcast, and the
// loop-carried path is carry' = max(g[15], sat(carry + 16*gap)): two
// VPSUBUSW by 8*|gap| and a VPMAXUW.

#include "textflag.h"

// poaBitsTab: words [1, 2, 4, ..., 0x8000]. Broadcasting a group's
// 16 match bits and comparing (word AND tab) == tab turns bit l into
// an all-ones word in lane l.
DATA poaBitsTab<>+0x00(SB)/8, $0x0008000400020001
DATA poaBitsTab<>+0x08(SB)/8, $0x0080004000200010
DATA poaBitsTab<>+0x10(SB)/8, $0x0800040002000100
DATA poaBitsTab<>+0x18(SB)/8, $0x8000400020001000
GLOBL poaBitsTab<>(SB), RODATA|NOPTR, $32

// poaLaneIdx: words [0, 1, ..., 15], the carry ramp's multipliers.
DATA poaLaneIdx<>+0x00(SB)/8, $0x0003000200010000
DATA poaLaneIdx<>+0x08(SB)/8, $0x0007000600050004
DATA poaLaneIdx<>+0x10(SB)/8, $0x000b000a00090008
DATA poaLaneIdx<>+0x18(SB)/8, $0x000f000e000d000c
GLOBL poaLaneIdx<>(SB), RODATA|NOPTR, $32

// poaHalfIdx: words [0 x8, 1, 2, ..., 8], the cross-half ramp's
// multipliers.
DATA poaHalfIdx<>+0x00(SB)/8, $0x0000000000000000
DATA poaHalfIdx<>+0x08(SB)/8, $0x0000000000000000
DATA poaHalfIdx<>+0x10(SB)/8, $0x0004000300020001
DATA poaHalfIdx<>+0x18(SB)/8, $0x0008000700060005
GLOBL poaHalfIdx<>(SB), RODATA|NOPTR, $32

// poaBcast7: VPSHUFB control copying word 7 of each 128-bit half to
// all eight words of that half.
DATA poaBcast7<>+0x00(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA poaBcast7<>+0x08(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA poaBcast7<>+0x10(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA poaBcast7<>+0x18(SB)/8, $0x0f0e0f0e0f0e0f0e
GLOBL poaBcast7<>(SB), RODATA|NOPTR, $32

// Register plan:
//   Y1 match splat    Y2 mism splat   Y3 gap      Y4 a = -gap
//   Y5 2a             Y6 4a           Y15 8a      Y7 0x8000
//   Y8 bits table     Y9 ramp [0 x8, 1..8]*a      Y0 ramp (l+1)*a
//   Y10 subv          Y11 best        Y14 carry (offset, all lanes)
//   Y12, Y13 temps
// The multiples of a are exact as uint16 for a <= 4096 (8a is at most
// 32768); the carry ramp saturates at 65535, which only ever meets a
// carry term that is the sentinel either way. Y7 is both the -32768
// sentinel and the sign flip into and out of offset binary.

// func poaRowAsm(a *poaRowArgs)
TEXT ·poaRowAsm(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), SI              // score base
	MOVQ 8(AX), DI              // predOff
	MOVQ 16(AX), R8             // mask words
	MOVQ 24(AX), R9             // rowOff (elements)
	MOVQ 32(AX), R10            // npred
	MOVQ 40(AX), R11            // ngroups
	VPBROADCASTW 48(AX), Y1     // match
	VPBROADCASTW 50(AX), Y2     // mism
	VPBROADCASTW 52(AX), Y3     // gap
	VPXOR Y4, Y4, Y4
	VPSUBW Y3, Y4, Y4           // a
	VPADDW Y4, Y4, Y5           // 2a
	VPADDW Y5, Y5, Y6           // 4a
	VPADDW Y6, Y6, Y15          // 8a
	VPMULLW poaHalfIdx<>(SB), Y4, Y9
	VPMULLW poaLaneIdx<>(SB), Y4, Y0
	VPADDUSW Y4, Y0, Y0         // (l+1)*a
	VPCMPEQD Y7, Y7, Y7
	VPSLLW $15, Y7, Y7          // -32768 sentinel, 0x8000
	VMOVDQU poaBitsTab<>(SB), Y8
	LEAQ (SI)(R9*2), R9         // &score[rowOff]
	// The first group's carry is the finished column 0.
	VPBROADCASTW (R9), Y14
	VPXOR Y7, Y14, Y14
	XORQ R12, R12               // gi

groups:
	// subv: group gi's 16 match bits live at byte offset 2*gi (they
	// are 16-bit aligned because groups start at j0-1 = 16*gi).
	VPBROADCASTW (R8)(R12*2), Y10
	VPAND Y8, Y10, Y10
	VPCMPEQW Y8, Y10, Y10
	VPBLENDVB Y10, Y1, Y2, Y10  // bit set -> match, else mism

	// Vertical candidates: running max over diag+up per predecessor.
	VMOVDQA Y7, Y11
	MOVQ R12, R15
	SHLQ $5, R15                // 32*gi: byte offset of column j0-1
	MOVQ DI, R13
	MOVQ R10, R14
predloop:
	MOVQ (R13), BX              // predecessor row element offset
	LEAQ (SI)(BX*2), BX
	ADDQ R15, BX                // &score[prow + j0-1]
	VMOVDQU (BX), Y12
	VPADDSW Y10, Y12, Y12       // diag + sub
	VPMAXSW Y12, Y11, Y11
	VMOVDQU 2(BX), Y12
	VPADDSW Y3, Y12, Y12        // up + gap
	VPMAXSW Y12, Y11, Y11
	ADDQ $8, R13
	DECQ R14
	JNZ predloop

	// Prefix-max gap scan over the vertical candidates, offset
	// binary: lane l ends up with g[l] = max over k<=l of
	// sat(vert[k] + (l-k)*gap). Shifts by 1, 2, 4 lanes within each
	// 128-bit half fill with zero, the sentinel; then the low half's
	// last lane folds into the high half with the ramp (k+1)*gap.
	VPXOR Y7, Y11, Y11
	VPSLLDQ $2, Y11, Y12
	VPSUBUSW Y4, Y12, Y12
	VPMAXUW Y12, Y11, Y11
	VPSLLDQ $4, Y11, Y12
	VPSUBUSW Y5, Y12, Y12
	VPMAXUW Y12, Y11, Y11
	VPSLLDQ $8, Y11, Y12
	VPSUBUSW Y6, Y12, Y12
	VPMAXUW Y12, Y11, Y11
	VPSHUFB poaBcast7<>(SB), Y11, Y12
	VPERM2I128 $0x08, Y12, Y12, Y12 // [0, low half's lane 7]
	VPSUBUSW Y9, Y12, Y12
	VPMAXUW Y12, Y11, Y11          // g

	// g[15] broadcast: the group's outgoing chain value before the
	// carry.
	VPSHUFB poaBcast7<>(SB), Y11, Y13
	VPERM2I128 $0x11, Y13, Y13, Y13

	// final = max(g, sat(carry + (l+1)*gap)); store columns
	// j0..j0+15.
	VPSUBUSW Y0, Y14, Y12
	VPMAXUW Y12, Y11, Y11
	VPXOR Y7, Y11, Y11
	VMOVDQU Y11, 2(R9)(R15*1)

	// Next group's carry: max(g[15], sat(carry + 16*gap)).
	VPSUBUSW Y15, Y14, Y14
	VPSUBUSW Y15, Y14, Y14
	VPMAXUW Y13, Y14, Y14

	INCQ R12
	CMPQ R12, R11
	JLT groups

	VZEROUPPER
	RET
