//go:build !amd64

package bsw

// No assembly band-row kernel off amd64 (arm64 included); alignWide
// (only reachable from tests here — AlignInto's dispatch requires
// bswHaveWideAsm) runs the portable body.
const bswHaveWideAsm = false

func bswRowWide(prevH, curH, ev, prof []int16, lo, ngroups int, tail uint16, oe, ge, hleft int16) (int16, int) {
	return bswRowPortable(prevH, curH, ev, prof, lo, ngroups, tail, oe, ge, hleft)
}
