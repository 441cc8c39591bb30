//go:build !amd64

package abea

// No assembly body off amd64: the portable sweep and arg-max in
// lanes.go are the only path (on arm64 too — no NEON twin until CI can
// execute one). The stubs keep the dispatch sites compiling;
// haveBandAsm being a false constant removes the calls.

const haveBandAsm = false

func bandSweepAVX2(x, mu, sd, ls, up, left, diag, dst []float32) {
	bandSweepQuad(x, mu, sd, ls, up, left, diag, dst)
}

func bandArgmaxAVX2(band []float32) int { return bandArgmax(band) }
