package cpufeat

import "testing"

// TestAVX2Usable: the tier needs the leaf-7 AVX2 bit, OS-saved YMM
// state, and AVX and FMA; dropping any one input bit drops the tier.
func TestAVX2Usable(t *testing.T) {
	const ecx1, xcr0, ebx7 = osxsaveBit | avxBit | fmaBit, xmmYmm, avx2Bit
	if !avx2Usable(ecx1, xcr0, ebx7) {
		t.Fatal("every required bit set, tier refused")
	}
	for _, c := range []struct {
		name             string
		ecx1, xcr0, ebx7 uint32
	}{
		{"no FMA", ecx1 &^ fmaBit, xcr0, ebx7},
		{"no AVX", ecx1 &^ avxBit, xcr0, ebx7},
		{"no OSXSAVE", ecx1 &^ osxsaveBit, xcr0, ebx7},
		{"no YMM state", ecx1, xcr0 &^ 0x4, ebx7},
		{"no XMM state", ecx1, xcr0 &^ 0x2, ebx7},
		{"no AVX2", ecx1, xcr0, 0},
	} {
		if avx2Usable(c.ecx1, c.xcr0, c.ebx7) {
			t.Errorf("%s: tier allowed", c.name)
		}
	}

	// And on this host: a detected tier comes with FMA.
	_, _, hostECX1, _ := cpuid(1, 0)
	if hw := detect().HasAVX2; hw && hostECX1&fmaBit == 0 {
		t.Fatal("AVX2 tier detected on a host without FMA")
	}
}
