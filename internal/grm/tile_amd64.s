// AVX2 4x8 register tile of the f64 relationship matrix; see tile.go
// for the contract. Eight YMM accumulators hold the 32 running dot
// products; each site loads the eight column values once (Y12, Y13)
// and broadcasts the four row values against them. VMULPD then
// VADDPD: there is no fused multiply-add in this file, so every entry
// rounds twice per site, exactly as the scalar dot product does.

#include "textflag.h"

// ROW updates one tile row for the current site from the row value at
// off(SI).
#define ROW(off, acc0, acc1) \
	VBROADCASTSD off(SI), Y15; \
	VMULPD Y12, Y15, Y14; \
	VADDPD Y14, acc0, acc0; \
	VMULPD Y13, Y15, Y14; \
	VADDPD Y14, acc1, acc1

// func dotTileAsm(zi, zj *float64, s int, acc *[32]float64)
TEXT ·dotTileAsm(SB), NOSPLIT, $0-32
	MOVQ zi+0(FP), SI
	MOVQ zj+8(FP), DI
	MOVQ s+16(FP), CX
	MOVQ acc+24(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
site:
	VMOVUPD (DI), Y12
	VMOVUPD 32(DI), Y13
	ROW(0, Y0, Y1)
	ROW(8, Y2, Y3)
	ROW(16, Y4, Y5)
	ROW(24, Y6, Y7)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  site
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET
