// AVX2 16-wide band-row kernel for banded Smith-Waterman. One ymm
// register holds one 16-column group of saturating int16 DP cells;
// see wide.go for the kernel contract, the F-chain linearization, and
// the proof sketch that the prefix-max scan below equals the serial
// chain for ge in [0, 4095].
//
// Carry off the scan: each group scans its own c values from the
// -32768 sentinel, not from the previous group's carry, so the scan
// depends only on the group's own cells and the out-of-order core
// overlaps it with its neighbours. The carry is folded in after:
// f[l] = max(g[l-1], sat(carry - l*ge)). That is exact under
// saturation because sat(max(a, b) - x) = max(sat(a - x), sat(b - x))
// and successive saturating subtractions of nonnegative amounts equal
// one subtraction of their sum. The scan and the carry live in offset
// binary (x ^ 0x8000: signed order becomes unsigned order and the
// sentinel becomes 0), where sat(x - k) for any k in [0, 65535] is one
// VPSUBUSW, so the ramp l*ge (up to 15*4095) needs no split and
// in-lane byte shifts fill with the sentinel for free. The carry
// stays in a register as a broadcast; the loop-carried path is
// carry' = max(g[15], sat(carry - 16*ge)): two VPSUBUSW by 8*ge and a
// VPMAXUW.

#include "textflag.h"

// bswBitsTab: words [1, 2, 4, ..., 0x8000]. Broadcasting the tail
// validity bits and comparing (word AND tab) == tab turns bit l into
// an all-ones word in lane l.
DATA bswBitsTab<>+0x00(SB)/8, $0x0008000400020001
DATA bswBitsTab<>+0x08(SB)/8, $0x0080004000200010
DATA bswBitsTab<>+0x10(SB)/8, $0x0800040002000100
DATA bswBitsTab<>+0x18(SB)/8, $0x8000400020001000
GLOBL bswBitsTab<>(SB), RODATA|NOPTR, $32

// bswLaneIdx: words [0, 1, ..., 15], the carry ramp's multipliers.
DATA bswLaneIdx<>+0x00(SB)/8, $0x0003000200010000
DATA bswLaneIdx<>+0x08(SB)/8, $0x0007000600050004
DATA bswLaneIdx<>+0x10(SB)/8, $0x000b000a00090008
DATA bswLaneIdx<>+0x18(SB)/8, $0x000f000e000d000c
GLOBL bswLaneIdx<>(SB), RODATA|NOPTR, $32

// bswHalfIdx: words [0 x8, 1, 2, ..., 8], the cross-half ramp's
// multipliers.
DATA bswHalfIdx<>+0x00(SB)/8, $0x0000000000000000
DATA bswHalfIdx<>+0x08(SB)/8, $0x0000000000000000
DATA bswHalfIdx<>+0x10(SB)/8, $0x0004000300020001
DATA bswHalfIdx<>+0x18(SB)/8, $0x0008000700060005
GLOBL bswHalfIdx<>(SB), RODATA|NOPTR, $32

// bswBcast7: VPSHUFB control copying word 7 of each 128-bit half to
// all eight words of that half.
DATA bswBcast7<>+0x00(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA bswBcast7<>+0x08(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA bswBcast7<>+0x10(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA bswBcast7<>+0x18(SB)/8, $0x0f0e0f0e0f0e0f0e
GLOBL bswBcast7<>(SB), RODATA|NOPTR, $32

// Register plan:
//   Y1 ramp [0 x8, 1..8]*ge      Y3 ge       Y4 2*ge     Y5 4*ge
//   Y6 8*ge          Y7 0x8000   Y10 oe      Y11 ramp l*ge
//   Y12 row max (offset)         Y13 F carry (offset, all lanes)
//   Y14 htmp (offset)            Y0, Y2, Y8, Y9, Y15 temps
// Every ge multiple is exact as a uint16 (15*4095 < 65536), and all
// but the ramp Y11 are below 32768. Y7 is both the sign flip into
// and out of offset binary and the int16 sentinel.

// func bswRowAsm(a *bswRowArgs)
TEXT ·bswRowAsm(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), SI              // prevH base
	MOVQ 8(AX), DI              // curH base
	MOVQ 16(AX), R8             // E base
	MOVQ 24(AX), R9             // score profile base
	MOVQ 32(AX), BX
	SHLQ $1, BX                 // byte offset of column lo
	MOVQ BX, R10
	MOVQ 40(AX), R11            // ngroups
	VPBROADCASTW 58(AX), Y3     // ge
	VPADDW Y3, Y3, Y4           // 2*ge
	VPADDW Y4, Y4, Y5           // 4*ge
	VPADDW Y5, Y5, Y6           // 8*ge
	VPMULLW bswLaneIdx<>(SB), Y3, Y11
	VPMULLW bswHalfIdx<>(SB), Y3, Y1
	VPCMPEQD Y7, Y7, Y7
	VPSLLW $15, Y7, Y7          // 0x8000
	VPBROADCASTW 56(AX), Y10    // oe
	// F carry: the first group's incoming chain value is c of the
	// boundary cell, sat(hleft-oe).
	VPBROADCASTW 60(AX), Y13
	VPXOR Y7, Y13, Y13
	VPSUBUSW Y10, Y13, Y13
	VPXOR Y12, Y12, Y12         // row max accumulator: the sentinel
	XORQ R12, R12               // gi

groups:
	// htmp = max(diag + s, e) with e = max(prevH-oe, E-ge); E is
	// stored back before the F merge, exactly like the scalar path.
	VMOVDQU (R9)(BX*1), Y0      // s: prof[j..]
	VPADDSW -2(SI)(BX*1), Y0, Y14 // diag: prevH[j-1..] + s
	VMOVDQU (SI)(BX*1), Y8      // prevH[j..]
	VPSUBSW Y10, Y8, Y8
	VMOVDQU (R8)(BX*1), Y9      // E[j..]
	VPSUBSW Y3, Y9, Y9
	VPMAXSW Y9, Y8, Y8          // e
	VMOVDQU Y8, (R8)(BX*1)
	VPMAXSW Y8, Y14, Y14
	VPXOR Y7, Y14, Y14          // htmp, offset binary from here on

	// c = sat(htmp - oe). Prefix-max scan over c: lane l ends up with
	// g[l] = max over k<=l of sat(c[k] - (l-k)*ge), the group's own F
	// chain one column on, f[l+1] = max(g[l], carry term). Shifts by
	// 1, 2, 4 lanes within each 128-bit half fill with zero, the
	// offset-binary sentinel; then the low half's last lane folds
	// into the high half with the ramp (k+1)*ge.
	VPSUBUSW Y10, Y14, Y0
	VPSLLDQ $2, Y0, Y9
	VPSUBUSW Y3, Y9, Y9
	VPMAXUW Y9, Y0, Y0
	VPSLLDQ $4, Y0, Y9
	VPSUBUSW Y4, Y9, Y9
	VPMAXUW Y9, Y0, Y0
	VPSLLDQ $8, Y0, Y9
	VPSUBUSW Y5, Y9, Y9
	VPMAXUW Y9, Y0, Y0
	VPSHUFB bswBcast7<>(SB), Y0, Y9
	VPERM2I128 $0x08, Y9, Y9, Y9   // [0, low half's lane 7]
	VPSUBUSW Y1, Y9, Y9
	VPMAXUW Y9, Y0, Y0             // g

	// g[15] broadcast: the group's outgoing chain value before the
	// carry.
	VPSHUFB bswBcast7<>(SB), Y0, Y8
	VPERM2I128 $0x11, Y8, Y8, Y8

	// f = max(g shifted up one lane (sentinel in lane 0),
	// sat(carry - l*ge)).
	VPERM2I128 $0x08, Y0, Y0, Y9
	VPALIGNR $14, Y9, Y0, Y0
	VPSUBUSW Y11, Y13, Y9
	VPMAXUW Y9, Y0, Y0             // f

	// Next group's carry: max(g[15], sat(carry - 16*ge)).
	VPSUBUSW Y6, Y13, Y13
	VPSUBUSW Y6, Y13, Y13
	VPMAXUW Y8, Y13, Y13

	// H = max(htmp, f); store, fold into the row max (the last group
	// zeroes out-of-band lanes, the offset sentinel, first).
	VPMAXUW Y0, Y14, Y14
	VPXOR Y7, Y14, Y0
	VMOVDQU Y0, (DI)(BX*1)
	LEAQ 1(R12), CX
	CMPQ CX, R11
	JEQ lastgroup
	VPMAXUW Y14, Y12, Y12
	JMP next

lastgroup:
	VPBROADCASTW 48(AX), Y8
	VMOVDQU bswBitsTab<>(SB), Y9
	VPAND Y9, Y8, Y8
	VPCMPEQW Y9, Y8, Y8
	VPAND Y8, Y14, Y9
	VPMAXUW Y9, Y12, Y12

next:
	ADDQ $32, BX
	INCQ R12
	CMPQ R12, R11
	JLT groups

	// Horizontal max of the accumulator, left in every lane as int16.
	VPERM2I128 $0x01, Y12, Y12, Y8
	VPMAXUW Y8, Y12, Y12
	VPSHUFD $0x4E, Y12, Y8
	VPMAXUW Y8, Y12, Y12
	VPSHUFD $0xB1, Y12, Y8
	VPMAXUW Y8, Y12, Y12
	VPSHUFLW $0xB1, Y12, Y8
	VPSHUFHW $0xB1, Y8, Y8
	VPMAXUW Y8, Y12, Y12
	VPXOR Y7, Y12, Y12
	MOVQ X12, CX
	MOVW CX, 62(AX)

	// Leftmost column holding the row max: the first stored H word
	// equal to it. An in-band lane attains it and padding lanes only
	// follow the band, so the first match is in band.
	MOVQ R10, BX
	XORQ R12, R12
colscan:
	VPCMPEQW (DI)(BX*1), Y12, Y8
	VPMOVMSKB Y8, CX
	TESTL CX, CX
	JNZ found
	ADDQ $32, BX
	INCQ R12
	CMPQ R12, R11
	JLT colscan
found:
	BSFL CX, CX                 // byte index of the first equal word
	SHRQ $1, BX
	SHRL $1, CX
	ADDQ CX, BX
	MOVQ BX, 64(AX)
	VZEROUPPER
	RET
