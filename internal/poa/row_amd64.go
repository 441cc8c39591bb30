package poa

// Assembly fast path for the 16-wide row sweep: AVX2 (row_amd64.s). It
// replays poaRowPortable's arithmetic with one 16-lane
// saturating-int16 vector per column group — same candidate order,
// same saturation — so its output is bit-identical to the portable
// body on every input the kernel contract admits (gap <= 0; see
// row_wide.go for why the asm prefix-max scan equals the portable
// serial chain even off the range proof). TestPoaRowAsmHammer asserts
// exactly that.
//
// AVX2 is not in the amd64 baseline: callers must gate on
// cpufeat.Wide16(), which folds in both the
// CPUID/XCR0 probe and the GBENCH_SIMD override.

// poaHaveWideAsm reports whether this architecture has an assembly
// row kernel compiled in (it still needs cpufeat.Wide16() at run
// time to be dispatchable).
const poaHaveWideAsm = true

// poaRowArgs is the flattened argument block for poaRowAsm. Field
// offsets are fixed by the assembly — keep layout in sync with
// row_amd64.s.
type poaRowArgs struct {
	score   *int16  // +0:  DP table base
	predOff *int64  // +8:  predecessor row element offsets, npred entries
	mask    *uint64 // +16: dense match-bit words for this row's base
	rowOff  int64   // +24: element offset of this row's start
	npred   int64   // +32: predecessor count, >= 1
	ngroups int64   // +40: 16-column group count
	match   int16   // +48
	mism    int16   // +50
	gap     int16   // +52
	_       [6]byte // pad to 8-byte multiple
}

//go:noescape
func poaRowAsm(a *poaRowArgs)

// poaRowWide advances one DP row through the assembly kernel. Same
// contract as poaRowPortable.
func poaRowWide(score []int16, predOff []int64, mask []uint64, rowOff, ngroups int, match, mism, gap int16) {
	a := poaRowArgs{
		score: &score[0], predOff: &predOff[0], mask: &mask[0],
		rowOff: int64(rowOff), npred: int64(len(predOff)), ngroups: int64(ngroups),
		match: match, mism: mism, gap: gap,
	}
	poaRowAsm(&a)
}
