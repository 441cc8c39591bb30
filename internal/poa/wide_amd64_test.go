package poa

import (
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/genome"
)

// TestPoaRowAsmHammer cross-checks the assembly row kernel against
// poaRowPortable on randomized score tables, predecessor sets, match
// masks, and scoring — not just DP-shaped inputs. The kernel contract
// (row_wide.go) promises bit-identity for any table contents as long
// as gap stays in [-4096, 0], so the hammer draws from the full int16
// range and asserts every cell of the written row, padding included.
func TestPoaRowAsmHammer(t *testing.T) {
	if !cpufeat.Wide16() {
		t.Skip("no wide SIMD tier on this host (or GBENCH_SIMD lowered the ceiling)")
	}
	rng := rand.New(rand.NewSource(57))
	for it := 0; it < 2000; it++ {
		ngroups := 1 + rng.Intn(5)
		wpad := 1 + 16*ngroups
		rows := 2 + rng.Intn(6)
		tab := make([]int16, rows*wpad)
		for i := range tab {
			tab[i] = int16(rng.Int())
		}
		tabP := append([]int16(nil), tab...)
		npred := 1 + rng.Intn(3)
		predOff := make([]int64, npred)
		for k := range predOff {
			predOff[k] = int64(rng.Intn(rows-1)) * int64(wpad)
		}
		mask := make([]uint64, (wpad-2)/64+1)
		for i := range mask {
			mask[i] = rng.Uint64()
		}
		match := int16(rng.Int())
		mism := int16(rng.Int())
		gap := int16(-rng.Intn(4097))
		row := (rows - 1) * wpad
		poaRowWide(tab, predOff, mask, row, ngroups, match, mism, gap)
		poaRowPortable(tabP, predOff, mask, row, ngroups, match, mism, gap)
		for i := range tab {
			if tab[i] != tabP[i] {
				t.Fatalf("iter %d: cell %d (row %d col %d) = %d (asm) vs %d (portable); ngroups=%d npred=%d match=%d mism=%d gap=%d",
					it, i, i/wpad, i%wpad, tab[i], tabP[i], ngroups, npred, match, mism, gap)
			}
		}
	}
}

// TestWideSimdOffMatchesAsm runs full consensus builds twice — once
// with the hardware's wide tier, once with GBENCH_SIMD=off pinning
// the portable twin — and demands identical consensi and identical
// DP tables. This is the end-to-end form of the hammer above: the
// dispatch seam (useAsm in addSequenceLanes) must be invisible.
func TestWideSimdOffMatchesAsm(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	p := DefaultParams()
	for trial := 0; trial < 10; trial++ {
		w := randomWindow(rng)

		ga := New()
		ga.forceLanes = true
		var ca genome.Seq
		for _, seq := range w.Sequences {
			ga.AddSequenceMode(seq, p, GlobalMode)
		}
		ca = ga.Consensus()
		tabA := append([]int16(nil), ga.score16...)

		restore := cpufeat.ForceForTest("off")
		gp := New()
		gp.forceLanes = true
		for _, seq := range w.Sequences {
			gp.AddSequenceMode(seq, p, GlobalMode)
		}
		cp := gp.Consensus()
		restore()

		if !ca.Equal(cp) {
			t.Fatalf("trial %d: consensus differs between asm and GBENCH_SIMD=off portable paths", trial)
		}
		for i := range tabA {
			if tabA[i] != gp.score16[i] {
				t.Fatalf("trial %d: final DP table cell %d differs: %d (asm) vs %d (portable)", trial, i, tabA[i], gp.score16[i])
			}
		}
	}
}
