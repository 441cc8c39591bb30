// SSE2 kernel for the lane-batched PairHMM row update. See
// row_amd64.go for the contract: bit-identical to two pure-Go rowQuad
// sweeps (same per-lane operations in the same rounding order, same
// flush points).
//
// Register plan:
//   X0  tgo (broadcast)      X6 lastM lo   X10-X14 transients
//   X1  tge (broadcast)      X7 lastD lo   X15 flush floor (broadcast)
//   X2  prMatchM (broadcast) X8 lastM hi
//   X3  prMismM (broadcast)  X9 lastD hi
//   X4  prMatchG (broadcast)
//   X5  prMismG (broadcast)
//   SI/DI/R8 prev M/I/D   R9/R10/R11 cur M/I/D
//   R12 mask cursor  BX blend table  CX columns left  DX byte offset
//   R13/AX nibble scratch
//
// Column j (1-based) lives at byte offset j*32; the lo quad at +0,
// the hi quad at +16; diagonal predecessors at -32/-16.

#include "textflag.h"

// FLUSH(v, t) is flush4: lanes of v below the floor become +0. NLT
// (predicate 5) is true for v >= floor and for NaN, so like the Go
// `if v < floor { v = 0 }` it leaves a NaN alone.
#define FLUSH(v, t) \
	MOVAPS v, t       \
	CMPPS  X15, t, $5 \
	ANDPS  t, v

TEXT ·rowLanesAsm(SB), NOSPLIT, $0-8
	MOVQ a+0(FP), AX
	MOVQ 0(AX), SI   // pPM
	MOVQ 8(AX), DI   // pPI
	MOVQ 16(AX), R8  // pPD
	MOVQ 24(AX), R9  // pCM
	MOVQ 32(AX), R10 // pCI
	MOVQ 40(AX), R11 // pCD
	MOVQ 48(AX), R12 // mask
	MOVQ 56(AX), BX  // blend table
	MOVQ 64(AX), CX  // n

	MOVSS  72(AX), X2 // prMatchM
	SHUFPS $0, X2, X2
	MOVSS  76(AX), X3 // prMismM
	SHUFPS $0, X3, X3
	MOVSS  80(AX), X4 // prMatchG
	SHUFPS $0, X4, X4
	MOVSS  84(AX), X5 // prMismG
	SHUFPS $0, X5, X5
	MOVSS  88(AX), X0 // tgo
	SHUFPS $0, X0, X0
	MOVSS  92(AX), X1 // tge
	SHUFPS $0, X1, X1
	MOVSS  96(AX), X15 // floor
	SHUFPS $0, X15, X15

	// Column 0 of the current rows is the DP boundary: all zero.
	XORPS  X10, X10
	MOVUPS X10, 0(R9)
	MOVUPS X10, 16(R9)
	MOVUPS X10, 0(R10)
	MOVUPS X10, 16(R10)
	MOVUPS X10, 0(R11)
	MOVUPS X10, 16(R11)

	// D chains start at the boundary zeros.
	XORPS X6, X6
	XORPS X7, X7
	XORPS X8, X8
	XORPS X9, X9

	MOVQ  $32, DX // byte offset of column 1
	TESTQ CX, CX
	JLE   done

loop:
	MOVBLZX (R12), R13 // mb = mask[j-1]
	INCQ    R12

	// ---------- lo quad (lanes 0-3, nibble mb&15) ----------
	MOVQ   R13, AX
	ANDQ   $15, AX
	SHLQ   $4, AX
	MOVUPS (BX)(AX*1), X10 // lane-select mask

	// prM = mask ? prMatchM : prMismM ; prG likewise.
	MOVAPS X10, X11
	ANDPS  X2, X11
	MOVAPS X10, X12
	ANDNPS X3, X12
	ORPS   X12, X11        // X11 = prM
	MOVAPS X10, X12
	ANDPS  X4, X12
	ANDNPS X5, X10
	ORPS   X10, X12        // X12 = prG

	// mj = pMd*prM + (pId+pDd)*prG
	MOVUPS -32(SI)(DX*1), X13
	MULPS  X11, X13
	MOVUPS -32(DI)(DX*1), X14
	MOVUPS -32(R8)(DX*1), X10
	ADDPS  X14, X10
	MULPS  X12, X10
	ADDPS  X10, X13        // X13 = mj
	FLUSH(X13, X10)

	// ij = pMu*tgo + pIu*tge
	MOVUPS (SI)(DX*1), X14
	MULPS  X0, X14
	MOVUPS (DI)(DX*1), X11
	MULPS  X1, X11
	ADDPS  X11, X14        // X14 = ij
	FLUSH(X14, X10)

	// dj = lastM*tgo + lastD*tge
	MOVAPS X6, X12
	MULPS  X0, X12
	MOVAPS X7, X11
	MULPS  X1, X11
	ADDPS  X11, X12        // X12 = dj
	FLUSH(X12, X10)

	MOVUPS X13, (R9)(DX*1)
	MOVUPS X14, (R10)(DX*1)
	MOVUPS X12, (R11)(DX*1)
	MOVAPS X13, X6         // lastM lo
	MOVAPS X12, X7         // lastD lo

	// ---------- hi quad (lanes 4-7, nibble mb>>4) ----------
	SHRQ   $4, R13
	SHLQ   $4, R13
	MOVUPS (BX)(R13*1), X10

	MOVAPS X10, X11
	ANDPS  X2, X11
	MOVAPS X10, X12
	ANDNPS X3, X12
	ORPS   X12, X11
	MOVAPS X10, X12
	ANDPS  X4, X12
	ANDNPS X5, X10
	ORPS   X10, X12

	MOVUPS -16(SI)(DX*1), X13
	MULPS  X11, X13
	MOVUPS -16(DI)(DX*1), X14
	MOVUPS -16(R8)(DX*1), X10
	ADDPS  X14, X10
	MULPS  X12, X10
	ADDPS  X10, X13
	FLUSH(X13, X10)

	MOVUPS 16(SI)(DX*1), X14
	MULPS  X0, X14
	MOVUPS 16(DI)(DX*1), X11
	MULPS  X1, X11
	ADDPS  X11, X14
	FLUSH(X14, X10)

	MOVAPS X8, X12
	MULPS  X0, X12
	MOVAPS X9, X11
	MULPS  X1, X11
	ADDPS  X11, X12
	FLUSH(X12, X10)

	MOVUPS X13, 16(R9)(DX*1)
	MOVUPS X14, 16(R10)(DX*1)
	MOVUPS X12, 16(R11)(DX*1)
	MOVAPS X13, X8
	MOVAPS X12, X9

	ADDQ $32, DX
	DECQ CX
	JNZ  loop

done:
	RET
