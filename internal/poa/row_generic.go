//go:build !amd64

package poa

// poaHaveWideAsm reports whether this architecture has an assembly
// row kernel compiled in.
const poaHaveWideAsm = false

// poaRowWide off amd64 (arm64 included) is the portable body; the
// dispatch guard (poaHaveWideAsm && cpufeat.AVX2()) means it is
// never actually reached here, but keeping it callable lets the
// dispatch site compile unconditionally.
func poaRowWide(score []int16, predOff []int64, mask []uint64, rowOff, ngroups int, match, mism, gap int16) {
	poaRowPortable(score, predOff, mask, rowOff, ngroups, match, mism, gap)
}
