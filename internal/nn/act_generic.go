//go:build !amd64

package nn

// No assembly body off amd64: the scalar functions are the only path.
// haveActAsm being a false constant removes the calls to the stubs.

const haveActAsm = false

func sigmoidAsm(dst, src []float32) bool { mapScalar(dst, src, Sigmoid); return false }

func tanhAsm(dst, src []float32) bool { mapScalar(dst, src, Tanh); return false }

func swishAsm(dst, src []float32) bool { mapScalar(dst, src, Swish); return false }
