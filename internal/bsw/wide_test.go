package bsw

import (
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/lanes"
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
// Align reference over a grid of modes, bands, z-drops, and scoring
// params, on related and unrelated sequence pairs. Results must be
// bit-identical: same score, same end cell, same cell count, same
// z-drop flag.
func TestAlignWideDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	params := []Params{
		DefaultParams(),
		{Match: 2, Mismatch: 3, GapOpen: 5, GapExtend: 2, Band: 10, ZDrop: 40, Mode: Extension},
		{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 1, Band: 25, ZDrop: 0, Mode: Extension},
		{Match: 2, Mismatch: 5, GapOpen: 4, GapExtend: 1, Band: 17, ZDrop: 100, Mode: Local},
		{Match: 1, Mismatch: 1, GapOpen: 0, GapExtend: 1, Band: 7, ZDrop: 25, Mode: Local},
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
// random match masks and tail masks. The kernel contract (wide.go)
// promises bit-identity whenever ge stays in [0, 4095], so the
// hammer asserts every stored H and E cell plus the row max.
func TestBswRowAsmHammer(t *testing.T) {
	if !bswHaveWideAsm {
		t.Skip("no assembly band-row kernel on this architecture")
	}
	if !cpufeat.AVX2() {
		t.Skip("no AVX2 on this host (or GBENCH_SIMD lowered the ceiling)")
	}
	rng := rand.New(rand.NewSource(92))
	for it := 0; it < 2000; it++ {
		ngroups := 1 + rng.Intn(5)
		lo := 1 + rng.Intn(40)
		size := lo + 16*ngroups + 1
		prevH := make([]int16, size)
		curH := make([]int16, size)
		ev := make([]int16, size)
		for i := 0; i < size; i++ {
			prevH[i] = int16(rng.Int())
			curH[i] = int16(rng.Int())
			ev[i] = int16(rng.Int())
		}
		curHP := append([]int16(nil), curH...)
		evP := append([]int16(nil), ev...)
		gmask := make([]uint16, ngroups)
		for i := range gmask {
			gmask[i] = uint16(rng.Int())
		}
		tail := uint16(0xFFFF) >> uint(rng.Intn(16))
		match := int16(rng.Int())
		mism := int16(rng.Int())
		oe := int16(rng.Intn(20000))
		ge := int16(rng.Intn(4096))
		clamp := negInf16
		if rng.Intn(2) == 0 {
			clamp = 0
		}
		hleft := int16(rng.Int())
		curH[lo-1] = hleft
		curHP[lo-1] = hleft

		rmA := bswRowWide(prevH, curH, ev, gmask, lo, ngroups, tail, match, mism, oe, ge, clamp, hleft)
		rmP := bswRowPortable(prevH, curHP, evP, gmask, lo, ngroups, tail, match, mism, oe, ge, clamp, hleft)
		if rmA != rmP {
			t.Fatalf("iter %d: rowMax %d (asm) vs %d (portable); lo=%d ngroups=%d tail=%#x oe=%d ge=%d clamp=%d", it, rmA, rmP, lo, ngroups, tail, oe, ge, clamp)
		}
		for i := 0; i < size; i++ {
			if curH[i] != curHP[i] {
				t.Fatalf("iter %d: H[%d] = %d (asm) vs %d (portable); lo=%d ngroups=%d oe=%d ge=%d", it, i, curH[i], curHP[i], lo, ngroups, oe, ge)
			}
			if ev[i] != evP[i] {
				t.Fatalf("iter %d: E[%d] = %d (asm) vs %d (portable); lo=%d ngroups=%d oe=%d ge=%d", it, i, ev[i], evP[i], lo, ngroups, oe, ge)
			}
		}
	}
}

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
// regime is eligible, over-long or hostile-scoring problems are not,
// and the DP-area floor consults the shared lanes tunable.
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
	if got := wideArea(Params{Band: 10}, 7, 100); got != 7*21 {
		t.Fatalf("wideArea = %d, want %d", got, 7*21)
	}
	if got := wideArea(Params{Band: 200}, 7, 100); got != 700 {
		t.Fatalf("wideArea clamps at n: got %d, want 700", got)
	}
	_ = lanes.WideMinWork.Get() // the floor must resolve without panicking
}

// TestAlignWideZDropAndLocal locks the two mode-specific behaviors to
// the scalar reference on adversarial inputs: Extension's z-drop
// abort row (via CellUpdates) and Local's zero clamp.
func TestAlignWideZDropAndLocal(t *testing.T) {
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
	lp := Params{Match: 1, Mismatch: 4, GapOpen: 6, GapExtend: 1, Band: 30, Mode: Local}
	for trial := 0; trial < 30; trial++ {
		q := randSeqWide(rng, 1+rng.Intn(100))
		tg := randSeqWide(rng, 1+rng.Intn(100))
		want := Align(q, tg, lp)
		if got := alignWide(q, tg, lp, a, false); got != want {
			t.Fatalf("local trial %d: portable wide %+v != scalar %+v", trial, got, want)
		}
		if bswHaveWideAsm && cpufeat.AVX2() {
			if got := alignWide(q, tg, lp, a, true); got != want {
				t.Fatalf("local trial %d: asm wide %+v != scalar %+v", trial, got, want)
			}
		}
	}
}

// FuzzAlignWideBoundary drives the int16 range proof from both sides:
// the fuzzer picks the scoring, band, z-drop and mode, and the query
// and target lengths sum to wideEligible's largest eligible total plus
// delta (clamped to [-2, 2]), so delta <= 0 is the last eligible
// problem and delta > 0 the first that must fall back. AlignInto must
// equal the scalar Align on the dispatched tier and with the SIMD
// ceiling forced off, and where the proof admits the problem, both
// wide bodies must too, whatever the work floor decides.
func FuzzAlignWideBoundary(f *testing.F) {
	for _, delta := range []int8{-1, 0, 1} {
		f.Add(int64(1), uint8(0), uint8(3), uint8(5), uint8(0), uint8(30), uint16(100), false, uint8(128), delta)
		f.Add(int64(2), uint8(7), uint8(1), uint8(0), uint8(2), uint8(5), uint16(0), true, uint8(10), delta)
	}
	f.Fuzz(func(t *testing.T, seed int64, match, mismatch, gapOpen, gapExtend, band uint8, zdrop uint16, local bool, split uint8, delta int8) {
		p := Params{
			Match:     1 + int(match%8),
			Mismatch:  int(mismatch % 9),
			GapOpen:   int(gapOpen % 13),
			GapExtend: int(gapExtend % 5),
			Band:      1 + int(band%100),
			ZDrop:     int(zdrop) % (wideScoreBound + 1),
			Mode:      Extension,
		}
		if local {
			p.Mode = Local
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
