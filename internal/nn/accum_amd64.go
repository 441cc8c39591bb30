package nn

// AVX2 bodies of the accumulate microkernel (accum_amd64.s). AVX2 is
// not in the amd64 baseline: accum.go gates every call on
// cpufeat.AVX2(), which folds in the CPUID/XCR0 probe and the
// GBENCH_SIMD override, and has already bounds-checked the operands.
// Column counts handed down are multiples of 8.

const haveAccAsm = true

// accArgs is the flattened argument block for accRowsAsm. Field
// offsets are fixed by the assembly — keep layout in sync with
// accum_amd64.s. Strides are in bytes.
type accArgs struct {
	dst  *float32 // +0
	a    *float32 // +8
	b    *float32 // +16
	ldd  int64    // +24
	lda  int64    // +32
	ldb  int64    // +40
	rows int64    // +48: counted down in place by the assembly
	k    int64    // +56
	n    int64    // +64: columns, a multiple of 8
}

//go:noescape
func accRowsAsm(a *accArgs)

func accRowsAVX2(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, rows, kk, n int) {
	args := accArgs{
		dst: &dst[0], a: &a[0], b: &b[0],
		ldd: int64(ldd) * 4, lda: int64(lda) * 4, ldb: int64(ldb) * 4,
		rows: int64(rows), k: int64(kk), n: int64(n),
	}
	accRowsAsm(&args)
}

// mulAccArgs is the argument block for mulAccRowsAsm; same rules.
type mulAccArgs struct {
	dst  *float32 // +0
	x    *float32 // +8
	y    *float32 // +16
	ldd  int64    // +24
	ldx  int64    // +32
	rows int64    // +40
	n    int64    // +48: columns, a multiple of 8
}

//go:noescape
func mulAccRowsAsm(a *mulAccArgs)

func mulAccRowsAVX2(dst []float32, ldd int, x []float32, ldx int, y []float32, rows, n int) {
	args := mulAccArgs{
		dst: &dst[0], x: &x[0], y: &y[0],
		ldd: int64(ldd) * 4, ldx: int64(ldx) * 4,
		rows: int64(rows), n: int64(n),
	}
	mulAccRowsAsm(&args)
}
