//go:build !amd64

package bsw

// No assembly band-row kernel off amd64 (arm64 included); alignWide
// (only reachable from tests here — AlignInto's dispatch requires
// bswHaveWideAsm) runs the portable body.
const bswHaveWideAsm = false

func bswRowWide(prevH, curH, ev []int16, gmask []uint16, lo, ngroups int, tail uint16, match, mism, oe, ge, hleft int16) int16 {
	return bswRowPortable(prevH, curH, ev, gmask, lo, ngroups, tail, match, mism, oe, ge, hleft)
}
