//go:build !amd64

package cpufeat

// detect off amd64 (arm64 included): no asm kernels, portable Go only.
func detect() Features {
	return Features{}
}
