package bsw

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/scratch"
)

func randSeqWide(rng *rand.Rand, n int) genome.Seq {
	s := make(genome.Seq, n)
	for i := range s {
		s[i] = genome.Base(rng.Intn(4))
	}
	return s
}

// mutateFrom returns a noisy copy of src so alignments have real
// diagonal structure (pure random pairs z-drop almost immediately).
func mutateFrom(rng *rand.Rand, src genome.Seq, rate float64) genome.Seq {
	out := make(genome.Seq, 0, len(src)+8)
	for _, b := range src {
		switch {
		case rng.Float64() < rate/3: // deletion
		case rng.Float64() < rate/3: // insertion
			out = append(out, b, genome.Base(rng.Intn(4)))
		case rng.Float64() < rate: // substitution
			out = append(out, genome.Base(rng.Intn(4)))
		default:
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = append(out, src[0])
	}
	return out
}

// TestAlignWideDifferential runs the 16-wide int16 path (portable
// body, and the asm body where the host has one) against the scalar
// Align reference over a grid of bands, z-drops, and scoring
// params, on related and unrelated sequence pairs. Results must be
// bit-identical: same score, same end cell, same cell count, same
// z-drop flag.
func TestAlignWideDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	params := []Params{
		DefaultParams(),
		{Match: 2, Mismatch: 3, GapOpen: 5, GapExtend: 2, Band: 10, ZDrop: 40},
		{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 1, Band: 25, ZDrop: 0},
		{Match: 2, Mismatch: 5, GapOpen: 4, GapExtend: 1, Band: 17, ZDrop: 100},
		{Match: 1, Mismatch: 1, GapOpen: 0, GapExtend: 1, Band: 7, ZDrop: 25},
	}
	a := scratch.New()
	for trial := 0; trial < 60; trial++ {
		p := params[trial%len(params)]
		m := 1 + rng.Intn(120)
		q := randSeqWide(rng, m)
		var tg genome.Seq
		if trial%3 == 0 {
			tg = randSeqWide(rng, 1+rng.Intn(120))
		} else {
			tg = mutateFrom(rng, q, 0.1)
		}
		if !wideEligible(p, len(q), len(tg)) {
			t.Fatalf("trial %d: grid params unexpectedly ineligible for m=%d n=%d", trial, len(q), len(tg))
		}
		want := Align(q, tg, p)
		got := alignWide(q, tg, p, a, false)
		if got != want {
			t.Fatalf("trial %d: portable wide %+v != scalar %+v (params %+v, m=%d n=%d)", trial, got, want, p, len(q), len(tg))
		}
		if bswHaveWideAsm && cpufeat.AVX2() {
			gotAsm := alignWide(q, tg, p, a, true)
			if gotAsm != want {
				t.Fatalf("trial %d: asm wide %+v != scalar %+v (params %+v, m=%d n=%d)", trial, gotAsm, want, p, len(q), len(tg))
			}
		}
	}
}

// TestBswRowAsmHammer cross-checks the assembly band-row kernel
// against bswRowPortable on randomized rows — full-range int16 cell
// values, arbitrary band offsets (groups are deliberately unaligned),
// full-range match and mismatch scores picked per column by a random
// bit, random tail masks — and on the named carry edges in
// bswRowEdges. The kernel contract (wide.go) promises bit-identity
// whenever ge stays in [0, 4095], so the hammer asserts every stored
// H and E cell plus the row max and its column.
func TestBswRowAsmHammer(t *testing.T) {
	if !bswHaveWideAsm {
		t.Skip("no assembly band-row kernel on this architecture")
	}
	if !cpufeat.AVX2() {
		t.Skip("no AVX2 on this host (or GBENCH_SIMD lowered the ceiling)")
	}
	for _, e := range bswRowEdges {
		if msg := diffBswRow(e.in.row()); msg != "" {
			t.Errorf("%s: %s", e.name, msg)
		}
	}
	rng := rand.New(rand.NewSource(92))
	for it := 0; it < 2000; it++ {
		ngroups := 1 + rng.Intn(5)
		lo := 1 + rng.Intn(40)
		size := lo + 16*ngroups + 1
		r := bswRow{
			prevH: make([]int16, size), curH: make([]int16, size), ev: make([]int16, size),
			prof: make([]int16, size), lo: lo, ngroups: ngroups,
		}
		match, mism := int16(rng.Int()), int16(rng.Int())
		for i := 0; i < size; i++ {
			r.prevH[i] = int16(rng.Int())
			r.curH[i] = int16(rng.Int())
			r.ev[i] = int16(rng.Int())
			r.prof[i] = mism
			if rng.Intn(2) == 0 {
				r.prof[i] = match
			}
		}
		r.tail = uint16(0xFFFF) >> uint(rng.Intn(16))
		r.oe = int16(rng.Intn(20000))
		r.ge = int16(rng.Intn(4096))
		r.hleft = int16(rng.Int())
		if msg := diffBswRow(r); msg != "" {
			t.Fatalf("iter %d: %s", it, msg)
		}
	}
}

// FuzzBswRowAsm holds the assembly band-row kernel to bswRowPortable
// on rows the fuzzer draws inside the kernel contract. The seeds in
// testdata/fuzz/FuzzBswRowAsm are the bswRowEdges cases.
func FuzzBswRowAsm(f *testing.F) {
	f.Fuzz(func(t *testing.T, ngroups, lo, tailShift uint8, oe, ge, hleft int16, prevH, ev, prof []byte) {
		if !bswHaveWideAsm || !cpufeat.AVX2() {
			t.Skip("no AVX2 band-row kernel on this host")
		}
		in := bswRowInput{ngroups, lo, tailShift, oe, ge, hleft, prevH, ev, prof}
		if msg := diffBswRow(in.row()); msg != "" {
			t.Fatal(msg)
		}
	})
}

// bswRow is one band row's kernel arguments.
type bswRow struct {
	prevH, curH, ev, prof []int16
	lo, ngroups           int
	tail                  uint16
	oe, ge, hleft         int16
}

// diffBswRow runs r through the assembly kernel and bswRowPortable,
// each on its own copy of the rows, and describes the first
// difference in the row max, its column, or any H or E cell; "" when
// they agree.
func diffBswRow(r bswRow) string {
	r.curH[r.lo-1] = r.hleft
	hA, eA := append([]int16(nil), r.curH...), append([]int16(nil), r.ev...)
	hP, eP := append([]int16(nil), r.curH...), append([]int16(nil), r.ev...)
	mA, jA := bswRowWide(r.prevH, hA, eA, r.prof, r.lo, r.ngroups, r.tail, r.oe, r.ge, r.hleft)
	mP, jP := bswRowPortable(r.prevH, hP, eP, r.prof, r.lo, r.ngroups, r.tail, r.oe, r.ge, r.hleft)
	args := fmt.Sprintf("lo=%d ngroups=%d tail=%#x oe=%d ge=%d hleft=%d", r.lo, r.ngroups, r.tail, r.oe, r.ge, r.hleft)
	if mA != mP || jA != jP {
		return fmt.Sprintf("rowMax %d at %d (asm) vs %d at %d (portable); %s", mA, jA, mP, jP, args)
	}
	for i := range hA {
		if hA[i] != hP[i] {
			return fmt.Sprintf("H[%d] = %d (asm) vs %d (portable); %s", i, hA[i], hP[i], args)
		}
		if eA[i] != eP[i] {
			return fmt.Sprintf("E[%d] = %d (asm) vs %d (portable); %s", i, eA[i], eP[i], args)
		}
	}
	return ""
}

// bswRowInput is a band row in fuzz-argument form. Every argument is
// folded into the kernel contract (ngroups in [1, 16], lo in [1, 40],
// oe in [0, 32767], ge in [0, 4095]); prevH, ev and the score profile
// are repeating little-endian int16 patterns anchored at column lo, so
// a 32-byte pattern gives each group lane its own value.
type bswRowInput struct {
	ngroups, lo, tailShift uint8
	oe, ge, hleft          int16
	prevH, ev, prof        []byte
}

func (in bswRowInput) row() bswRow {
	r := bswRow{
		lo: 1 + int(in.lo)%40, ngroups: 1 + int(in.ngroups)%16,
		tail: uint16(0xFFFF) >> (in.tailShift % 16),
		oe:   in.oe & 0x7FFF, ge: int16(uint16(in.ge) % 4096), hleft: in.hleft,
	}
	size := r.lo + 16*r.ngroups + 1
	r.prevH, r.ev, r.prof, r.curH = make([]int16, size), make([]int16, size), make([]int16, size), make([]int16, size)
	for i := 0; i < size; i++ {
		r.prevH[i] = patternI16(in.prevH, i-r.lo)
		r.ev[i] = patternI16(in.ev, i-r.lo)
		r.prof[i] = patternI16(in.prof, i-r.lo)
		r.curH[i] = int16(i)
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

// bswRowEdge is one named row of FuzzBswRowAsm's seed corpus.
type bswRowEdge struct {
	name string
	in   bswRowInput
}

// bswRowEdges are rows of 16 groups where the folded-in carry wins in
// lanes 12-15 with the ramp l*ge past 32767. Every cell of the row
// computes to -32768 except lane 15 of each even group, whose E cell
// makes c = carry: each odd group enters with that carry and all its
// lanes take sat(carry - l*ge); each even group enters with
// sat(carry - 16*ge) (group 0 with the carry itself, through hleft).
// At ge = 2185 the lane-15 ramp is 32775 and carry 8000 still lands in
// range; at ge = 4095 lanes 9-15 saturate. FuzzBswRowAsm's seed
// corpus holds the same rows.
var bswRowEdges = func() (edges []bswRowEdge) {
	const oe = 64
	for _, ge := range []int16{2185, 4095} {
		for _, carry := range []int16{8000, 0, -32768} {
			for _, lo := range []uint8{0, 22} {
				ev := make([]byte, 64)
				for l := 0; l < 32; l++ {
					v := uint16(0x8000)
					if l == 15 && carry > -32768 {
						v = uint16(carry + oe + ge)
					}
					ev[2*l], ev[2*l+1] = byte(v), byte(v>>8)
				}
				hleft := int16(-32768)
				if carry > -32768 {
					hleft = carry + oe
				}
				edges = append(edges, bswRowEdge{
					fmt.Sprintf("ge%d-carry%d-lo%d", ge, carry, 1+lo),
					bswRowInput{15, lo, 0, oe, ge, hleft, []byte{0x00, 0x80}, ev, nil},
				})
			}
		}
	}
	return edges
}()

// TestWideSimdOffMatchesDispatch pins GBENCH_SIMD=off and re-runs
// alignments through AlignInto: the dispatch seam must be invisible —
// SWAR-path results bit-identical to whatever the default dispatch
// (wide asm on capable hosts) produced.
func TestWideSimdOffMatchesDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	p := DefaultParams()
	a := scratch.New()
	type pair struct{ q, t genome.Seq }
	var pairs []pair
	var def []Result
	for trial := 0; trial < 20; trial++ {
		q := randSeqWide(rng, 40+rng.Intn(160))
		tg := mutateFrom(rng, q, 0.08)
		pairs = append(pairs, pair{q, tg})
		def = append(def, AlignInto(q, tg, p, a))
	}
	restore := cpufeat.ForceForTest("off")
	defer restore()
	for i, pr := range pairs {
		off := AlignInto(pr.q, pr.t, p, a)
		if off != def[i] {
			t.Fatalf("pair %d: GBENCH_SIMD=off result %+v != default dispatch %+v", i, off, def[i])
		}
	}
}

// TestWideEligibleBounds checks the range-proof gate: the bench
// regime is eligible, over-long or hostile-scoring problems are not.
func TestWideEligibleBounds(t *testing.T) {
	p := DefaultParams()
	if !wideEligible(p, 200, 220) {
		t.Fatal("default params at bench lengths should be wide-eligible")
	}
	if wideEligible(p, 600, 600) {
		t.Fatal("default params at length 600+600 exceed the int16 bound; must be ineligible")
	}
	if wideEligible(Params{Match: 1, Mismatch: -1, GapOpen: 6, GapExtend: 1}, 10, 10) {
		t.Fatal("negative mismatch penalty (bonus) must be ineligible")
	}
	if wideEligible(Params{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 1, ZDrop: wideScoreBound + 1}, 10, 10) {
		t.Fatal("ZDrop beyond the sentinel separation margin must be ineligible")
	}
}

// TestAlignWideZDrop locks z-drop, both ways, to the scalar reference
// on adversarial inputs: the abort row (via CellUpdates) when it is
// on, and the deeply negative scores of unrelated pairs when it is off.
func TestAlignWideZDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	a := scratch.New()
	p := DefaultParams()
	p.ZDrop = 15
	for trial := 0; trial < 30; trial++ {
		// A matching prefix followed by unrelated tails forces a
		// z-drop partway through.
		pre := randSeqWide(rng, 30)
		q := append(append(genome.Seq{}, pre...), randSeqWide(rng, 60)...)
		tg := append(append(genome.Seq{}, pre...), randSeqWide(rng, 60)...)
		want := Align(q, tg, p)
		if got := alignWide(q, tg, p, a, false); got != want {
			t.Fatalf("zdrop trial %d: portable wide %+v != scalar %+v", trial, got, want)
		}
		if bswHaveWideAsm && cpufeat.AVX2() {
			if got := alignWide(q, tg, p, a, true); got != want {
				t.Fatalf("zdrop trial %d: asm wide %+v != scalar %+v", trial, got, want)
			}
		}
	}
	np := Params{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 1, Band: 30}
	for trial := 0; trial < 30; trial++ {
		q := randSeqWide(rng, 1+rng.Intn(100))
		tg := randSeqWide(rng, 1+rng.Intn(100))
		want := Align(q, tg, np)
		if got := alignWide(q, tg, np, a, false); got != want {
			t.Fatalf("no-zdrop trial %d: portable wide %+v != scalar %+v", trial, got, want)
		}
		if bswHaveWideAsm && cpufeat.AVX2() {
			if got := alignWide(q, tg, np, a, true); got != want {
				t.Fatalf("no-zdrop trial %d: asm wide %+v != scalar %+v", trial, got, want)
			}
		}
	}
}

// FuzzAlignWideBoundary drives the int16 range proof from both sides:
// the fuzzer picks the scoring, band and z-drop, and the query
// and target lengths sum to wideEligible's largest eligible total plus
// delta (clamped to [-2, 2]), so delta <= 0 is the last eligible
// problem and delta > 0 the first that must fall back. AlignInto must
// equal the scalar Align on the dispatched tier and with the SIMD
// ceiling forced off, and where the proof admits the problem, both
// wide bodies must too.
func FuzzAlignWideBoundary(f *testing.F) {
	for _, delta := range []int8{-1, 0, 1} {
		f.Add(int64(1), uint8(0), uint8(3), uint8(5), uint8(0), uint8(30), uint16(100), uint8(128), delta)
		f.Add(int64(2), uint8(7), uint8(1), uint8(0), uint8(2), uint8(5), uint16(0), uint8(10), delta)
	}
	f.Fuzz(func(t *testing.T, seed int64, match, mismatch, gapOpen, gapExtend, band uint8, zdrop uint16, split uint8, delta int8) {
		p := Params{
			Match:     1 + int(match%8),
			Mismatch:  int(mismatch % 9),
			GapOpen:   int(gapOpen % 13),
			GapExtend: int(gapExtend % 5),
			Band:      1 + int(band%100),
			ZDrop:     int(zdrop) % (wideScoreBound + 1),
		}
		step := max(p.Match, p.Mismatch, p.GapOpen+p.GapExtend)
		d := max(-2, min(2, int(delta)))
		total := (wideScoreBound-p.GapOpen)/step - 16 + d
		m := max(1, min(total-1, total*int(split)/255))
		n := total - m
		if got, want := wideEligible(p, m, n), d <= 0; got != want {
			t.Fatalf("wideEligible(%+v, %d, %d) = %v at delta %d", p, m, n, got, d)
		}
		rng := rand.New(rand.NewSource(seed))
		q := randSeqWide(rng, m)
		tg := make(genome.Seq, n)
		for i := range tg {
			tg[i] = q[i*m/n]
			if rng.Intn(10) == 0 {
				tg[i] = genome.Base(rng.Intn(4))
			}
		}
		want := Align(q, tg, p)
		a := scratch.New()
		if got := AlignInto(q, tg, p, a); got != want {
			t.Fatalf("dispatched AlignInto %+v != Align %+v (params %+v, m=%d n=%d)", got, want, p, m, n)
		}
		if wideEligible(p, m, n) {
			if got := alignWide(q, tg, p, a, false); got != want {
				t.Fatalf("portable wide %+v != Align %+v (params %+v, m=%d n=%d)", got, want, p, m, n)
			}
			if bswHaveWideAsm && cpufeat.AVX2() {
				if got := alignWide(q, tg, p, a, true); got != want {
					t.Fatalf("asm wide %+v != Align %+v (params %+v, m=%d n=%d)", got, want, p, m, n)
				}
			}
		}
		restore := cpufeat.ForceForTest("off")
		defer restore()
		if got := AlignInto(q, tg, p, a); got != want {
			t.Fatalf("portable-tier AlignInto %+v != Align %+v (params %+v, m=%d n=%d)", got, want, p, m, n)
		}
	})
}
