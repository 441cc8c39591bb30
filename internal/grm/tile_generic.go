//go:build !amd64

package grm

// No assembly body off amd64: dotTilePortable is the only path (on
// arm64 too — no NEON twin until CI can execute one). The stub keeps
// the dispatch site compiling; haveTileAsm being a false constant
// removes the call.

const haveTileAsm = false

func dotTileAVX2(zi []float64, row0 int, zj []float64, s int, acc *[tileRows * panelWidth]float64) {
	dotTilePortable(zi, row0, zj, s, acc)
}
