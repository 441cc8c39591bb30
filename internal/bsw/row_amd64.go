package bsw

// Assembly fast path for the 16-wide band row: AVX2 (row_amd64.s). It
// replays bswRowPortable's arithmetic with one 16-lane
// saturating-int16 vector per column group, resolving the F chain with
// a per-group log-step prefix-max scan and folding the inter-group
// carry in after it, which wide.go proves equal to the serial chain
// for ge in [0, 4095]. TestBswRowAsmHammer and FuzzBswRowAsm assert
// bit-identity on arbitrary inputs in that contract.
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
	prevH   *int16 // +0:  previous H row
	curH    *int16 // +8:  output H row
	ev      *int16 // +16: E row, updated in place
	prof    *int16 // +24: substitution score of each column
	lo      int64  // +32: element offset of the first band column
	ngroups int64  // +40: 16-column group count, >= 1
	tail    int64  // +48: valid-lane bits of the last group
	oe      int16  // +56: gap open + extend
	ge      int16  // +58: gap extend
	hleft   int16  // +60: finished boundary cell curH[lo-1]
	rowMax  int16  // +62: out: row max over in-band lanes
	col     int64  // +64: out: leftmost in-band column attaining rowMax
}

//go:noescape
func bswRowAsm(a *bswRowArgs)

// bswRowWide advances one banded DP row through the assembly kernel.
// Same contract as bswRowPortable.
func bswRowWide(prevH, curH, ev, prof []int16, lo, ngroups int, tail uint16, oe, ge, hleft int16) (int16, int) {
	// Field by field: a composite literal with these &x[0] operands,
	// any of which may panic, is built in a temporary and copied.
	var a bswRowArgs
	a.prevH, a.curH, a.ev, a.prof = &prevH[0], &curH[0], &ev[0], &prof[0]
	a.lo, a.ngroups, a.tail = int64(lo), int64(ngroups), int64(tail)
	a.oe, a.ge, a.hleft = oe, ge, hleft
	bswRowAsm(&a)
	return a.rowMax, int(a.col)
}
