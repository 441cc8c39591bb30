package cpufeat

// cpuid executes CPUID with the given leaf/subleaf (cpuid_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0); only valid when
// CPUID reports OSXSAVE (cpuid_amd64.s).
func xgetbv() (eax, edx uint32)

// detect probes the hardware for AVX2, the one tier the suite's asm
// kernels use.
func detect() Features {
	var f Features
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return f
	}
	// OS support first: CPUID.1:ECX bit 27 (OSXSAVE) says XGETBV is
	// usable; XCR0 bits 1-2 say the OS saves XMM and YMM state on
	// context switch. Without both, executing a VEX.256 instruction
	// faults regardless of what leaf 7 advertises.
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if ecx1&osxsave == 0 {
		return f
	}
	xlo, _ := xgetbv()
	const xmmYmm = 0x6
	if xlo&xmmYmm != xmmYmm {
		return f
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	f.HasAVX2 = ebx7&avx2Bit != 0
	return f
}
