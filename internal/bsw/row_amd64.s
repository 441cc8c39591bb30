// AVX2 16-wide band-row kernel for banded Smith-Waterman. One ymm
// register holds one 16-column group of saturating int16 DP cells;
// see wide.go for the kernel contract, the F-chain linearization, and
// the proof sketch that the log-step prefix-max scan below equals the
// serial chain for ge in [0, 4095].

#include "textflag.h"

// bswBitsTab: words [1, 2, 4, ..., 0x8000]. Broadcasting a group's
// 16 match bits and comparing (word AND tab) == tab turns bit l into
// an all-ones word in lane l. Also expands the tail validity mask.
DATA bswBitsTab<>+0x00(SB)/8, $0x0008000400020001
DATA bswBitsTab<>+0x08(SB)/8, $0x0080004000200010
DATA bswBitsTab<>+0x10(SB)/8, $0x0800040002000100
DATA bswBitsTab<>+0x18(SB)/8, $0x8000400020001000
GLOBL bswBitsTab<>(SB), RODATA|NOPTR, $32

// Register plan:
//   Y1 match splat   Y2 mism splat   Y3 ge       Y4 2*ge
//   Y5 4*ge          Y6 8*ge         Y7 -32768   Y10 oe
//   Y12 row max      Y13 F carry (lane 15 live)
//   Y14 htmp         Y15 c           Y0, Y8, Y9 temps
// The ge multiples are built with VPADDSW; 8*ge is exact for the
// contract's ge <= 4095, and far inside int16 under wideEligible.

// func bswRowAsm(a *bswRowArgs)
TEXT ·bswRowAsm(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), SI              // prevH base
	MOVQ 8(AX), DI              // curH base
	MOVQ 16(AX), R8             // E base
	MOVQ 24(AX), R9             // gmask
	MOVQ 32(AX), BX
	SHLQ $1, BX                 // byte offset of column lo
	MOVQ 40(AX), R11            // ngroups
	VPBROADCASTW 56(AX), Y1     // match
	VPBROADCASTW 58(AX), Y2     // mism
	VPBROADCASTW 62(AX), Y3     // ge
	VPADDSW Y3, Y3, Y4          // 2*ge
	VPADDSW Y4, Y4, Y5          // 4*ge
	VPADDSW Y5, Y5, Y6          // 8*ge
	VPCMPEQD Y7, Y7, Y7
	VPSLLW $15, Y7, Y7          // -32768 sentinel
	VPBROADCASTW 60(AX), Y10    // oe
	// F carry: lane 15 seeds each group's incoming chain value; for
	// the first group that is c of the boundary cell, sat(hleft-oe).
	VPBROADCASTW 64(AX), Y13
	VPSUBSW Y10, Y13, Y13
	VMOVDQA Y7, Y12             // row max accumulator
	XORQ R12, R12               // gi

groups:
	// s: broadcast the group's 16 match bits, test against the bit
	// table, select match/mism.
	VPBROADCASTW (R9)(R12*2), Y0
	VMOVDQU bswBitsTab<>(SB), Y8
	VPAND Y8, Y0, Y0
	VPCMPEQW Y8, Y0, Y0
	VPBLENDVB Y0, Y1, Y2, Y0    // bit set -> match, else mism

	// htmp = max(diag + s, e) with e = max(prevH-oe, E-ge); E is
	// stored back before the F merge, exactly like the scalar path.
	VMOVDQU -2(SI)(BX*1), Y14   // diag: prevH[j-1..]
	VPADDSW Y0, Y14, Y14
	VMOVDQU (SI)(BX*1), Y8      // prevH[j..]
	VPSUBSW Y10, Y8, Y8
	VMOVDQU (R8)(BX*1), Y9      // E[j..]
	VPSUBSW Y3, Y9, Y9
	VPMAXSW Y9, Y8, Y8          // e
	VMOVDQU Y8, (R8)(BX*1)
	VPMAXSW Y8, Y14, Y14        // htmp

	// c = sat(htmp - oe); u = c shifted up one lane with the carry
	// register's lane 15 shifted in.
	VPSUBSW Y10, Y14, Y15
	VPERM2I128 $0x03, Y13, Y15, Y8 // [carry.hi, c.lo]
	VPALIGNR $14, Y8, Y15, Y0      // u = [carry15, c0..c14]

	// Log-step prefix-max scan: after shifts by 1, 2, 4, 8 lanes
	// (sentinel-filled) lane l holds f[j0+l] = max over k<=l of
	// u[k] - (l-k)*ge — the serial F chain.
	VPERM2I128 $0x02, Y7, Y0, Y8   // [sentinel, u.lo]
	VPALIGNR $14, Y8, Y0, Y9       // shift up 1 word
	VPSUBSW Y3, Y9, Y9
	VPMAXSW Y9, Y0, Y0
	VPERM2I128 $0x02, Y7, Y0, Y8
	VPALIGNR $12, Y8, Y0, Y9       // shift up 2 words
	VPSUBSW Y4, Y9, Y9
	VPMAXSW Y9, Y0, Y0
	VPERM2I128 $0x02, Y7, Y0, Y8
	VPALIGNR $8, Y8, Y0, Y9        // shift up 4 words
	VPSUBSW Y5, Y9, Y9
	VPMAXSW Y9, Y0, Y0
	VPERM2I128 $0x02, Y7, Y0, Y8   // shift up 8 words is the permute itself
	VPSUBSW Y6, Y8, Y8
	VPMAXSW Y8, Y0, Y0             // f

	// Next group's carry: lane 15 of max(c, sat(f - ge)).
	VPSUBSW Y3, Y0, Y13
	VPMAXSW Y15, Y13, Y13

	// H = max(htmp, f); store, fold into the row max (last group
	// blends out-of-band lanes to the sentinel first).
	VPMAXSW Y0, Y14, Y14
	VMOVDQU Y14, (DI)(BX*1)
	LEAQ 1(R12), CX
	CMPQ CX, R11
	JEQ lastgroup
	VPMAXSW Y14, Y12, Y12
	JMP next

lastgroup:
	VPBROADCASTW 48(AX), Y8
	VMOVDQU bswBitsTab<>(SB), Y9
	VPAND Y9, Y8, Y8
	VPCMPEQW Y9, Y8, Y8
	VPBLENDVB Y8, Y14, Y7, Y9   // in-band ? h : sentinel
	VPMAXSW Y9, Y12, Y12

next:
	ADDQ $32, BX
	INCQ R12
	CMPQ R12, R11
	JLT groups

	// Horizontal max of the accumulator -> args.rowMax.
	VEXTRACTI128 $1, Y12, X8
	VZEROUPPER
	VPMAXSW X8, X12, X12
	VPSHUFD $0x4E, X12, X8
	VPMAXSW X8, X12, X12
	VPSHUFD $0xB1, X12, X8
	VPMAXSW X8, X12, X12
	VPSHUFLW $0xB1, X12, X8
	VPMAXSW X8, X12, X12
	MOVQ X12, CX
	MOVW CX, 66(AX)
	RET
