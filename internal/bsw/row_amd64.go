package bsw

// Assembly fast path for the 16-wide band row: AVX2 (row_amd64.s). It
// replays bswRowPortable's arithmetic with one 16-lane
// saturating-int16 vector per column group, resolving the F chain with
// the log-step prefix-max scan wide.go proves equal to the serial
// chain for ge in [0, 4095]. TestBswRowAsmHammer asserts bit-identity
// on arbitrary inputs in that contract.
//
// As with poa's kernel, AVX2 is not in the amd64 baseline: callers
// gate on cpufeat.AVX2(), which folds in the CPUID/XCR0 probe and
// the GBENCH_SIMD override.

// bswHaveWideAsm reports whether this architecture has an assembly
// band-row kernel compiled in (it still needs cpufeat.AVX2() at
// run time to be dispatchable).
const bswHaveWideAsm = true

// bswRowArgs is the flattened argument block for bswRowAsm. Field
// offsets are fixed by the assembly — keep layout in sync with
// row_amd64.s.
type bswRowArgs struct {
	prevH   *int16  // +0:  previous H row
	curH    *int16  // +8:  output H row
	ev      *int16  // +16: E row, updated in place
	gmask   *uint16 // +24: per-group match bits, ngroups entries
	lo      int64   // +32: element offset of the first band column
	ngroups int64   // +40: 16-column group count, >= 1
	tail    int64   // +48: valid-lane bits of the last group
	match   int16   // +56
	mism    int16   // +58
	oe      int16   // +60: gap open + extend
	ge      int16   // +62: gap extend
	clamp   int16   // +64: 0 (Local) or -32768 (Extension)
	hleft   int16   // +66: finished boundary cell curH[lo-1]
	rowMax  int16   // +68: out: row max over in-band lanes
	_       [2]byte // pad to 8-byte multiple
}

//go:noescape
func bswRowAsm(a *bswRowArgs)

// bswRowWide advances one banded DP row through the assembly kernel.
// Same contract as bswRowPortable.
func bswRowWide(prevH, curH, ev []int16, gmask []uint16, lo, ngroups int, tail uint16, match, mism, oe, ge, clamp, hleft int16) int16 {
	a := bswRowArgs{
		prevH: &prevH[0], curH: &curH[0], ev: &ev[0], gmask: &gmask[0],
		lo: int64(lo), ngroups: int64(ngroups), tail: int64(tail),
		match: match, mism: mism, oe: oe, ge: ge, clamp: clamp, hleft: hleft,
	}
	bswRowAsm(&a)
	return a.rowMax
}
