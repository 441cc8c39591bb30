package abea

// AVX2 bodies of the band sweep and the band arg-max (band_amd64.s).
// AVX2 is not in the amd64 baseline: alignLanesInto gates both on
// cpufeat.AVX2(), which folds in the CPUID/XCR0 probe and the
// GBENCH_SIMD override, and only hands down interiors and bands of at
// least eight cells. See lanes.go for the contract: bit-identical to
// bandSweepQuad and bandArgmax (TestBandAsmHammer and
// TestBandArgmaxHammer assert exactly that).

const haveBandAsm = true

// bandK holds the sweep's five broadcast constants; band_amd64.s
// addresses them by index.
var bandK = [5]float32{lpStay, lpStep, lpSkip, -0.5, logSqrt2Pi32}

// bandArgs is the flattened argument block for bandSweepAsm, every
// pointer at the interior's first cell. Field offsets are fixed by the
// assembly — keep layout in sync with band_amd64.s.
type bandArgs struct {
	x    *float32 // +0: reversed event means
	mu   *float32 // +8: model mean by k-mer rank
	sd   *float32 // +16: model stdv
	ls   *float32 // +24: log stdv
	up   *float32 // +32: band i-1, (e-1, k)
	left *float32 // +40: band i-1, (e, k-1)
	diag *float32 // +48: band i-2, (e-1, k-1)
	dst  *float32 // +56: band i
	n    int64    // +64: cells, at least 8
}

//go:noescape
func bandSweepAsm(a *bandArgs)

//go:noescape
func bandArgmaxAsm(p *float32, n int, seed float32) int

func bandSweepAVX2(x, mu, sd, ls, up, left, diag, dst []float32) {
	n := len(dst)
	// The assembly runs unchecked: all eight operands must cover n cells.
	_, _, _, _, _, _, _ = x[n-1], mu[n-1], sd[n-1], ls[n-1], up[n-1], left[n-1], diag[n-1]
	args := bandArgs{
		x: &x[0], mu: &mu[0], sd: &sd[0], ls: &ls[0],
		up: &up[0], left: &left[0], diag: &diag[0], dst: &dst[0],
		n: int64(n),
	}
	bandSweepAsm(&args)
}

func bandArgmaxAVX2(band []float32) int {
	return bandArgmaxAsm(&band[0], len(band), negInf)
}
