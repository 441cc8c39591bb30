package poa

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/genome"
)

// TestPoaRowAsmHammer cross-checks the assembly row kernel against
// poaRowPortable on randomized score tables, predecessor sets, match
// masks, and scoring — not just DP-shaped inputs — and on the named
// carry edges in poaRowEdges. The kernel contract (row_wide.go)
// promises bit-identity for any table contents as long as gap stays
// in [-4096, 0], so the hammer draws from the full int16 range and
// asserts every cell of the written row, padding included.
func TestPoaRowAsmHammer(t *testing.T) {
	if !cpufeat.AVX2() {
		t.Skip("no AVX2 on this host (or GBENCH_SIMD lowered the ceiling)")
	}
	for _, e := range poaRowEdges {
		if msg := diffPoaRow(e.in.row()); msg != "" {
			t.Errorf("%s: %s", e.name, msg)
		}
	}
	rng := rand.New(rand.NewSource(57))
	for it := 0; it < 2000; it++ {
		ngroups := 1 + rng.Intn(5)
		wpad := 1 + 16*ngroups
		rows := 2 + rng.Intn(6)
		r := poaRow{tab: make([]int16, rows*wpad), row: (rows - 1) * wpad, ngroups: ngroups}
		for i := range r.tab {
			r.tab[i] = int16(rng.Int())
		}
		r.predOff = make([]int64, 1+rng.Intn(3))
		for k := range r.predOff {
			r.predOff[k] = int64(rng.Intn(rows-1)) * int64(wpad)
		}
		r.mask = make([]uint64, (wpad-2)/64+1)
		for i := range r.mask {
			r.mask[i] = rng.Uint64()
		}
		r.match = int16(rng.Int())
		r.mism = int16(rng.Int())
		r.gap = int16(-rng.Intn(4097))
		if msg := diffPoaRow(r); msg != "" {
			t.Fatalf("iter %d: %s", it, msg)
		}
	}
}

// FuzzPoaRowAsm holds the assembly row kernel to poaRowPortable on
// rows the fuzzer draws inside the kernel contract. The seeds in
// testdata/fuzz/FuzzPoaRowAsm are the poaRowEdges cases.
func FuzzPoaRowAsm(f *testing.F) {
	f.Fuzz(func(t *testing.T, ngroups, rows, npred uint8, match, mism, gap, carry int16, cells, mask []byte) {
		if !cpufeat.AVX2() {
			t.Skip("no AVX2 on this host")
		}
		in := poaRowInput{ngroups, rows, npred, match, mism, gap, carry, cells, mask}
		if msg := diffPoaRow(in.row()); msg != "" {
			t.Fatal(msg)
		}
	})
}

// poaRow is one DP row's kernel arguments: the row starting at
// element row of tab is written.
type poaRow struct {
	tab              []int16
	predOff          []int64
	mask             []uint64
	row, ngroups     int
	match, mism, gap int16
}

// diffPoaRow runs r through the assembly kernel and poaRowPortable,
// each on its own copy of the table, and describes the first cell
// that differs; "" when every cell agrees.
func diffPoaRow(r poaRow) string {
	tA := append([]int16(nil), r.tab...)
	tP := append([]int16(nil), r.tab...)
	poaRowWide(tA, r.predOff, r.mask, r.row, r.ngroups, r.match, r.mism, r.gap)
	poaRowPortable(tP, r.predOff, r.mask, r.row, r.ngroups, r.match, r.mism, r.gap)
	wpad := 1 + 16*r.ngroups
	for i := range tA {
		if tA[i] != tP[i] {
			return fmt.Sprintf("cell %d (row %d col %d) = %d (asm) vs %d (portable); ngroups=%d npred=%d match=%d mism=%d gap=%d",
				i, i/wpad, i%wpad, tA[i], tP[i], r.ngroups, len(r.predOff), r.match, r.mism, r.gap)
		}
	}
	return ""
}

// poaRowInput is a DP row in fuzz-argument form. Every argument is
// folded into the kernel contract (ngroups in [1, 16], 2 to 7 table
// rows, 1 to 3 predecessors, gap in [-4096, 0]). Every row holds the
// repeating little-endian int16 pattern cells anchored at column 1,
// so a 32-byte pattern gives each group lane its own value; the
// written row's column 0, which seeds the left chain, is carry. Group
// gi's match bits are element gi of the pattern mask.
type poaRowInput struct {
	ngroups, rows, npred    uint8
	match, mism, gap, carry int16
	cells, mask             []byte
}

func (in poaRowInput) row() poaRow {
	ngroups := 1 + int(in.ngroups)%16
	wpad := 1 + 16*ngroups
	rows := 2 + int(in.rows)%6
	gap := int(in.gap)
	if gap > 0 {
		gap = -gap
	}
	r := poaRow{
		tab: make([]int16, rows*wpad), predOff: make([]int64, 1+int(in.npred)%3),
		mask: make([]uint64, (wpad-2)/64+1), row: (rows - 1) * wpad, ngroups: ngroups,
		match: in.match, mism: in.mism, gap: int16(gap % 4097),
	}
	for i := range r.tab {
		r.tab[i] = patternI16(in.cells, i%wpad-1)
	}
	r.tab[r.row] = in.carry
	for k := range r.predOff {
		r.predOff[k] = int64(k%(rows-1)) * int64(wpad)
	}
	for gi := 0; gi < ngroups; gi++ {
		r.mask[gi/4] |= uint64(uint16(patternI16(in.mask, gi))) << (16 * (gi % 4))
	}
	return r
}

// patternI16 is element i (any sign; the pattern repeats both ways)
// of the little-endian int16 pattern p, or 0 for an empty pattern.
func patternI16(p []byte, i int) int16 {
	n := len(p) / 2
	if n == 0 {
		return 0
	}
	k := (i%n + n) % n
	return int16(uint16(p[2*k]) | uint16(p[2*k+1])<<8)
}

// poaRowEdge is one named row of FuzzPoaRowAsm's seed corpus.
type poaRowEdge struct {
	name string
	in   poaRowInput
}

// poaRowEdges are rows of 16 groups where the folded-in carry wins in
// lanes 12-15 with the ramp (l+1)*|gap| past 32767. The one
// predecessor row is -32768 except the up cell of lane 15 in each
// even group, which makes that lane's vertical candidate the carry;
// both substitution scores are -32768, so every other candidate is
// far below. Each odd group enters with the carry and takes
// sat(carry + (l+1)*gap) in every lane; each even group enters with
// sat(carry + 16*gap) (group 0 with the carry itself, from column 0).
// At gap = -2048 the lane-15 ramp is 32768 and carry 8000 still lands
// in range; at gap = -4096 it is 65536 and saturates.
// FuzzPoaRowAsm's seed corpus holds the same rows.
var poaRowEdges = func() (edges []poaRowEdge) {
	for _, gap := range []int16{-2048, -4096} {
		for _, carry := range []int16{8000, 0, -32768} {
			cells := make([]byte, 64)
			for l := 0; l < 32; l++ {
				v := uint16(0x8000)
				if l == 15 {
					v = uint16(int32(carry) - int32(gap))
				}
				cells[2*l], cells[2*l+1] = byte(v), byte(v>>8)
			}
			edges = append(edges, poaRowEdge{
				fmt.Sprintf("gap%d-carry%d", gap, carry),
				poaRowInput{15, 0, 0, -32768, -32768, gap, carry, cells, nil},
			})
		}
	}
	return edges
}()

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
		var ca genome.Seq
		for _, seq := range w.Sequences {
			ga.AddSequence(seq, p)
		}
		ca = ga.Consensus()
		tabA := append([]int16(nil), ga.score16...)

		restore := cpufeat.ForceForTest("off")
		gp := New()
		for _, seq := range w.Sequences {
			gp.AddSequence(seq, p)
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
