//go:build !amd64

package nn

// No assembly body off amd64: the portable loops in accum.go are the
// only path (on arm64 too — no NEON twin until CI can execute one).
// The stubs keep the dispatch sites compiling; haveAccAsm being a
// false constant removes the calls.

const haveAccAsm = false

func accRowsAVX2(dst []float32, ldd int, a []float32, lda int, b []float32, ldb, rows, kk, n int) {
	accRowsPortable(dst, ldd, a, lda, b, ldb, rows, kk, n)
}

func mulAccRowsAVX2(dst []float32, ldd int, x []float32, ldx int, y []float32, rows, n int) {
	mulAccRowsPortable(dst, ldd, x, ldx, y, rows, n)
}
