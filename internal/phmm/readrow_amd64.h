// Row macros shared by the read-lane kernels: readrow_amd64.s (float32,
// PS ops) and readrow64_amd64.s (float64, PD ops). Both lay one
// column's lanes out in 32 bytes and one read row's prior table in
// 128 (a ymm per haplotype base), so the addressing is the same; the
// including file defines VMUL, VADD and FLUSH(v, t) for its precision.
//
// Register plan (both kernels):
//   Y0-Y3   transients
//   Y4 lastM i     Y5 lastD i     Y6 lastM i+1   Y7 lastD i+1
//   Y11 flush floor (float32 only)
//   Y12 tmm   Y13 tim = tdm   Y14 tmi = tmd   Y15 tii = tdd
//   SI/DI/R8 P M/I/D   R9/R10/R11 C M/I/D
//   R12 haplotype end   R13 row i's prior table (row i+1's is 128 on)
//   BX column index minus n+1   DX byte offset of column k
//   AX table offset of the column's haplotype base

// ROW computes one column of one DP row in forwardInto's expressions
// and order: D first (from lastM and lastD, this row's previous column,
// carried in registers), then M from the source rows' diagonal column
// and I from their straight-up column, at byte offsets diag and up from
// DX in the s rows; the result is stored at offset up in the d rows.
// hap addresses the column's haplotype base, which picks the prior at
// tab(R13).
//   dj = flush(tmd*lastM + tdd*lastD)
//   mj = flush(prior*((tmm*pM + tim*pI) + tdm*pD)), diagonal column
//   ij = flush(tmi*pM + tii*pI), straight-up column
#define ROW(hap, tab, diag, up, sM, sI, sD, dM, dI, dD, lastM, lastD) \
	MOVBLZX hap, AX; \
	ANDL    $3, AX; \
	SHLL    $5, AX; \
	VMUL    Y14, lastM, Y3; \
	VMUL    Y15, lastD, lastD; \
	VADD    lastD, Y3, lastD; \
	FLUSH(lastD, Y0); \
	VMUL    diag(sM)(DX*1), Y12, Y1; \
	VMUL    diag(sI)(DX*1), Y13, Y2; \
	VADD    Y2, Y1, Y1; \
	VMUL    diag(sD)(DX*1), Y13, Y2; \
	VADD    Y2, Y1, Y1; \
	VMUL    tab(R13)(AX*1), Y1, lastM; \
	FLUSH(lastM, Y0); \
	VMUL    up(sM)(DX*1), Y14, Y1; \
	VMUL    up(sI)(DX*1), Y15, Y2; \
	VADD    Y2, Y1, Y1; \
	FLUSH(Y1, Y0); \
	VMOVUPS lastM, up(dM)(DX*1); \
	VMOVUPS Y1, up(dI)(DX*1); \
	VMOVUPS lastD, up(dD)(DX*1)

// Row i at column k: P -> C. Column k reads hap[k-1], (R12)(BX*1).
#define ROWI ROW((R12)(BX*1), 0, -32, 0, SI, DI, R8, R9, R10, R11, Y4, Y5)

// Row i+1 at column k-1: C -> P, over row i-1. Column k-1 reads
// hap[k-2].
#define ROWJ ROW(-1(R12)(BX*1), 128, -64, -32, R9, R10, R11, SI, DI, R8, Y6, Y7)
