package phmm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/lanes"
)

// laneRegion builds a region with enough haplotypes to engage the
// lane path: nh >= 8, haplotypes derived from one base sequence (the
// realistic same-window shape), reads of 30–119 bases sampled from it.
func laneRegion(rng *rand.Rand, reads, haps int) *Region {
	return laneRegionSized(rng, reads, haps, 100, 30, 90)
}

// laneRegionSized is laneRegion with haplotypes of hapMin…hapMin+119
// bases and reads of readMin…readMin+readSpan-1.
func laneRegionSized(rng *rand.Rand, reads, haps, hapMin, readMin, readSpan int) *Region {
	hapLen := hapMin + rng.Intn(120)
	base := genome.Random(rng, hapLen)
	rg := &Region{}
	for h := 0; h < haps; h++ {
		hap := base.Clone()
		for m := 0; m < h%5; m++ {
			hap[rng.Intn(len(hap))] = genome.Base(rng.Intn(4))
		}
		// Ragged lengths: some haplotypes carry a deletion tail.
		if h%3 == 2 {
			hap = hap[:len(hap)-rng.Intn(20)]
		}
		rg.Haps = append(rg.Haps, hap)
	}
	for r := 0; r < reads; r++ {
		m := min(readMin+rng.Intn(readSpan), hapLen-1)
		var read genome.Seq
		if rng.Intn(4) == 0 {
			// Unrelated read: drives the float32 underflow fallback.
			read = genome.Random(rng, m)
		} else {
			off := rng.Intn(hapLen - m)
			read = base[off : off+m].Clone()
			for k := 0; k < m/20+1; k++ {
				read[rng.Intn(m)] = genome.Base(rng.Intn(4))
			}
		}
		qual := make([]byte, m)
		for i := range qual {
			qual[i] = byte(10 + rng.Intn(40))
		}
		rg.Reads = append(rg.Reads, read)
		rg.Quals = append(rg.Quals, qual)
	}
	return rg
}

// The lane-batched region evaluation must match the scalar reference
// within laneTolerance per likelihood, with exact work counters and
// identical best-haplotype choices. Both fallback (float64) and
// ragged-tail lanes are exercised by the workload mix. The last ten
// trials use 100–250-base reads: past ~64 bases the tail rows of
// every read run along the flush floor.
func TestEvaluateRegionLanesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := NewScratch()
	sawFallback, sawRagged := false, false
	for trial := 0; trial < 35; trial++ {
		nh := 8 + rng.Intn(13) // covers multiples of 8 and ragged tails
		if nh%8 != 0 {
			sawRagged = true
		}
		hapMin, readMin, readSpan := 100, 30, 90
		if trial >= 25 {
			hapMin, readMin, readSpan = 260, 100, 151
		}
		rg := laneRegionSized(rng, 3+rng.Intn(6), nh, hapMin, readMin, readSpan)
		want := EvaluateRegionScalarInto(rg, nil)
		got := EvaluateRegionInto(rg, s)
		if got.CellUpdates != want.CellUpdates {
			t.Fatalf("trial %d: CellUpdates = %d, want %d (exact)", trial, got.CellUpdates, want.CellUpdates)
		}
		if got.Fallbacks != want.Fallbacks {
			t.Fatalf("trial %d: Fallbacks = %d, want %d", trial, got.Fallbacks, want.Fallbacks)
		}
		if want.Fallbacks > 0 {
			sawFallback = true
		}
		for i := range want.Likelihoods {
			g, w := got.Likelihoods[i], want.Likelihoods[i]
			if math.IsInf(w, -1) {
				if !math.IsInf(g, -1) {
					t.Fatalf("trial %d: Likelihoods[%d] = %v, want -Inf", trial, i, g)
				}
				continue
			}
			if math.Abs(g-w) > laneTolerance {
				t.Fatalf("trial %d: Likelihoods[%d] = %v, want %v (|diff| %g > %g)",
					trial, i, g, w, math.Abs(g-w), laneTolerance)
			}
		}
		for r := range want.BestHap {
			gh, wh := got.BestHap[r], want.BestHap[r]
			if gh == wh {
				continue
			}
			// The two paths may legitimately disagree only on a genuine
			// near-tie: two haplotypes whose scalar likelihoods sit within
			// the documented tolerance of each other (e.g. identical clones
			// split across the haplotype lanes and the exact read-lane
			// tail). Anything wider
			// is a real argmax bug.
			gw := want.Likelihoods[r*nh+gh]
			ww := want.Likelihoods[r*nh+wh]
			if math.Abs(gw-ww) > laneTolerance {
				t.Fatalf("trial %d: BestHap[%d] = %d (ll %v), want %d (ll %v): not a near-tie",
					trial, r, gh, gw, wh, ww)
			}
		}
	}
	if !sawFallback {
		t.Fatal("workload never exercised the float64 underflow fallback")
	}
	if !sawRagged {
		t.Fatal("workload never exercised a ragged haplotype tail")
	}
}

// Degenerate inputs must behave exactly like the scalar path: empty
// reads and empty haplotypes yield -Inf with no fallback accounting.
func TestEvaluateRegionLanesDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	rg := laneRegion(rng, 4, 9)
	rg.Haps[3] = nil  // empty haplotype in a full group
	rg.Reads[1] = nil // empty read
	rg.Quals[1] = nil
	s := NewScratch()
	want := EvaluateRegionScalarInto(rg, nil)
	got := EvaluateRegionInto(rg, s)
	if got.CellUpdates != want.CellUpdates || got.Fallbacks != want.Fallbacks {
		t.Fatalf("counters: got (%d, %d), want (%d, %d)",
			got.CellUpdates, got.Fallbacks, want.CellUpdates, want.Fallbacks)
	}
	for i := range want.Likelihoods {
		g, w := got.Likelihoods[i], want.Likelihoods[i]
		if math.IsInf(w, -1) != math.IsInf(g, -1) {
			t.Fatalf("Likelihoods[%d] = %v, want %v", i, g, w)
		}
	}
}

// FuzzForwardLanes: any read, base qualities and group of eight
// haplotypes give the same forwardLanes bits — the per-lane sums and
// all six DP rows — on the dispatched tier and with the tier forced
// off. Lane l's haplotype is hap rotated by l, cut short by byte l of
// ragged; a nonzero floorGap starts every live lane at
// 2^(-93 + floorGap%32) instead of 2^120/len, so the rows straddle the
// flush floor from the first read position on. Seed corpus under
// testdata/fuzz: m = 1 and 2, n = 1, near-floor rows under Phred 40
// and 2, Phred 93, and a ragged group with one lane uncut.
func FuzzForwardLanes(f *testing.F) {
	f.Fuzz(func(t *testing.T, readB, qualB, hapB []byte, ragged uint64, floorGap uint8) {
		read := make(genome.Seq, min(len(readB), 300))
		for i := range read {
			read[i] = genome.Base(readB[i] & 3)
		}
		qual := make([]byte, len(read))
		for i := range qual {
			qual[i] = 30
			if len(qualB) > 0 {
				qual[i] = qualB[i%len(qualB)] % byte(len(qualToErr))
			}
		}
		hapB = hapB[:min(len(hapB), 400)]
		haps := make([]genome.Seq, lanes.Width)
		for l := range haps {
			n := len(hapB) - int(ragged>>(8*l)&0xff)%(len(hapB)+1)
			haps[l] = make(genome.Seq, n)
			for j := range haps[l] {
				haps[l][j] = genome.Base(hapB[(j+l)%len(hapB)] & 3)
			}
		}
		run := func() (lanes.Lane8, [6][]float32) {
			s := NewScratch()
			prepareGroups(haps, s)
			grp := &s.groups[0]
			if floorGap > 0 {
				var init [lanes.Width]float32
				for l := range init {
					init[l] = float32(math.Ldexp(1, -93+int(floorGap%32)))
				}
				grp.init = lanes.FromArray(init)
			}
			sums := forwardLanes(read, qual, grp, &s.laneRows) // grows the rows
			return sums, s.laneRows
		}
		tier := cpufeat.String()
		sums, rows := run()
		defer cpufeat.ForceForTest("off")()
		wantSums, wantRows := run()
		for l := 0; l < lanes.Width; l++ {
			if g, w := math.Float32bits(sums.At(l)), math.Float32bits(wantSums.At(l)); g != w {
				t.Fatalf("lane %d sum: dispatched (%s) %x, portable %x", l, tier, g, w)
			}
		}
		for k := range rows {
			for o := range rows[k] {
				if g, w := math.Float32bits(rows[k][o]), math.Float32bits(wantRows[k][o]); g != w {
					t.Fatalf("row %d[%d]: dispatched (%s) %x, portable %x", k, o, tier, g, w)
				}
			}
		}
	})
}

// The lane paths must preserve the steady-state zero-allocation
// invariant with a warm scratch: 19 haplotypes are two full groups for
// the haplotype lanes and a three-haplotype tail for the read lanes.
func TestEvaluateRegionLanesZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rg := laneRegion(rng, 6, 19)
	s := NewScratch()
	EvaluateRegionInto(rg, s) // warm
	n := testing.AllocsPerRun(20, func() {
		EvaluateRegionInto(rg, s)
	})
	if n != 0 {
		t.Fatalf("AllocsPerRun = %v, want 0", n)
	}
}

// Scalar versus lane-batched evaluation of a sixteen-haplotype region,
// which runs entirely in haplotype lanes. The lane side runs once per
// row-kernel tier — tier=avx2 the two-row assembly sweep, tier=off the
// portable rowQuad rows — so the row kernel's cost can be re-measured
// alone.
func BenchmarkEvaluateRegionLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	rg := laneRegion(rng, 8, 16)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		s := NewScratch()
		for i := 0; i < b.N; i++ {
			EvaluateRegionScalarInto(rg, s)
		}
	})
	for _, tier := range []string{"avx2", "off"} {
		b.Run("lanes/tier="+tier, func(b *testing.B) {
			defer cpufeat.ForceForTest(tier)()
			if tier == "avx2" && !cpufeat.AVX2() {
				b.Skip("no AVX2 on this host")
			}
			b.ReportAllocs()
			s := NewScratch()
			for i := 0; i < b.N; i++ {
				EvaluateRegionInto(rg, s)
			}
		})
	}
}
