package grm

// AVX2 body of the register tile (tile_amd64.s). AVX2 is not in the
// amd64 baseline: dotTile gates the call on cpufeat.AVX2(), which
// folds in the CPUID/XCR0 probe and the GBENCH_SIMD override, and has
// already bounds-checked the panels.

const haveTileAsm = true

// dotTileAsm reads s*panelWidth doubles from zj and, at stride
// panelWidth, tileRows doubles per site from zi; s must be positive.
//
//go:noescape
func dotTileAsm(zi, zj *float64, s int, acc *[tileRows * panelWidth]float64)

func dotTileAVX2(zi []float64, row0 int, zj []float64, s int, acc *[tileRows * panelWidth]float64) {
	dotTileAsm(&zi[row0], &zj[0], s, acc)
}
