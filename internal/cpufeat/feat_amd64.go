package cpufeat

// cpuid executes CPUID with the given leaf/subleaf (cpuid_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0); only valid when
// CPUID reports OSXSAVE (cpuid_amd64.s).
func xgetbv() (eax, edx uint32)

// detect probes the hardware for AVX2, the one tier the suite's asm
// kernels use.
func detect() Features {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return Features{}
	}
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0 uint32
	if ecx1&osxsaveBit != 0 {
		xcr0, _ = xgetbv()
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return Features{HasAVX2: avx2Usable(ecx1, xcr0, ebx7)}
}

const (
	fmaBit     = 1 << 12 // CPUID.1:ECX
	osxsaveBit = 1 << 27 // CPUID.1:ECX
	avxBit     = 1 << 28 // CPUID.1:ECX
	xmmYmm     = 0x6     // XCR0
	avx2Bit    = 1 << 5  // CPUID.7.0:EBX
)

// avx2Usable decides the AVX2 tier from CPUID.1:ECX, XCR0 (0 when
// OSXSAVE is clear) and CPUID.7.0:EBX.
//
// OS support first: OSXSAVE says XGETBV is usable; XCR0 bits 1-2 say
// the OS saves XMM and YMM state on context switch. Without both,
// executing a VEX.256 instruction faults regardless of what leaf 7
// advertises. The tier also requires AVX and FMA: nn's activation
// lanes copy the FMA path of math.Exp, which Go takes exactly when the
// CPU has both (math.useFMA), so on a host with AVX2 but no FMA they
// would not equal the scalar functions. No known AVX2 CPU lacks FMA3,
// so this costs no real host its tier.
func avx2Usable(ecx1, xcr0, ebx7 uint32) bool {
	return ecx1&(osxsaveBit|avxBit|fmaBit) == osxsaveBit|avxBit|fmaBit &&
		xcr0&xmmYmm == xmmYmm &&
		ebx7&avx2Bit != 0
}
