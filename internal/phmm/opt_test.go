package phmm

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/lanes"
)

func randomReadHap(rng *rand.Rand) (genome.Seq, []byte, genome.Seq) {
	m := 10 + rng.Intn(150)
	n := m + rng.Intn(100)
	read := genome.Random(rng, m)
	qual := make([]byte, m)
	for i := range qual {
		qual[i] = byte(10 + rng.Intn(40))
	}
	hap := genome.Random(rng, n)
	// Half the time make the read a mutated slice of the haplotype, the
	// realistic high-likelihood shape.
	if rng.Intn(2) == 0 {
		off := rng.Intn(n - m + 1)
		copy(read, hap[off:off+m])
		for k := 0; k < m/20+1; k++ {
			read[rng.Intn(m)] = genome.Base(rng.Intn(4))
		}
	}
	return read, qual, hap
}

// Pooled evaluation must be bit-identical to the allocating path.
func TestLikelihoodIntoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewScratch()
	for trial := 0; trial < 200; trial++ {
		read, qual, hap := randomReadHap(rng)
		want := Likelihood(read, qual, hap)
		got := LikelihoodInto(read, qual, hap, s)
		if got != want {
			t.Fatalf("trial %d (|r|=%d |h|=%d): got %+v want %+v",
				trial, len(read), len(hap), got, want)
		}
	}
}

// EvaluateRegionInto is bit-identical to the scalar reference on every
// pair outside a full haplotype group — the read-lane pass — on the
// dispatched tier and with the tier forced off. With fewer than eight
// haplotypes that is the whole result: every likelihood's bits,
// BestHap and both counters. With more it is the |H| mod 8 tail's
// likelihood bits (the full groups are TestEvaluateRegionLanesDifferential's).
// Read counts straddle the eight-read groups, reads inside a group are
// ragged, one trial per count carries an empty read and one an empty
// haplotype, and a third of the base qualities are drawn from Phred
// 0–93, so many pairs take the float64 redo.
//
// Then a fallback-heavy grid (fallbackRegion), where the float64 read
// lanes settle most pairs of both passes: every likelihood the scalar
// path redid in float64, and every tail likelihood, is bit-exact, the
// rest (a read against the haplotype it came from, in a full group)
// within laneTolerance; BestHap and both counters are exact.
func TestEvaluateRegionIntoDifferential(t *testing.T) {
	for _, simd := range []string{"", "off"} {
		t.Run("simd="+cmp.Or(simd, "unset"), func(t *testing.T) {
			defer cpufeat.ForceForTest(simd)()
			rng := rand.New(rand.NewSource(12))
			s := NewScratch()
			fallbacks := 0
			for _, nr := range []int{1, 7, 8, 9, 17} {
				for trial, nh := range []int{1 + rng.Intn(7), 1 + rng.Intn(7), 9 + rng.Intn(15)} {
					rg := laneRegionSized(rng, nr, nh, 100, 30, 90)
					for _, qual := range rg.Quals {
						for i := range qual {
							if rng.Intn(3) == 0 {
								qual[i] = byte(rng.Intn(len(qualToErr)))
							}
						}
					}
					switch trial {
					case 0:
						r := rng.Intn(nr)
						rg.Reads[r], rg.Quals[r] = nil, nil
					case 1:
						rg.Haps[rng.Intn(nh)] = nil
					}
					want := EvaluateRegionScalarInto(rg, nil)
					got := EvaluateRegionInto(rg, s)
					fallbacks += want.Fallbacks
					tail := nh - nh%lanes.Width
					if nh < lanes.Width {
						if got.CellUpdates != want.CellUpdates || got.Fallbacks != want.Fallbacks {
							t.Fatalf("reads %d haps %d: counters (%d, %d), want (%d, %d)", nr, nh,
								got.CellUpdates, got.Fallbacks, want.CellUpdates, want.Fallbacks)
						}
						if !slices.Equal(got.BestHap, want.BestHap) {
							t.Fatalf("reads %d haps %d: BestHap %v, want %v", nr, nh, got.BestHap, want.BestHap)
						}
					}
					for r := 0; r < nr; r++ {
						for h := tail; h < nh; h++ {
							g, w := got.Likelihoods[r*nh+h], want.Likelihoods[r*nh+h]
							if math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("reads %d haps %d: read %d hap %d likelihood %v, want %v", nr, nh, r, h, g, w)
							}
						}
					}
				}
			}
			if fallbacks == 0 {
				t.Fatal("workload never exercised the float64 underflow fallback")
			}

			for _, shape := range []struct{ nh, extra int }{{4, 3}, {11, 2}} {
				nh := shape.nh
				rg, source, redos := fallbackRegion(rng, nh, shape.extra)
				want := EvaluateRegionScalarInto(rg, nil)
				got := EvaluateRegionInto(rg, s)
				if want.Fallbacks != redos {
					t.Fatalf("fallback grid, haps %d: scalar Fallbacks %d, built for %d", nh, want.Fallbacks, redos)
				}
				if got.CellUpdates != want.CellUpdates || got.Fallbacks != want.Fallbacks {
					t.Fatalf("fallback grid, haps %d: counters (%d, %d), want (%d, %d)", nh,
						got.CellUpdates, got.Fallbacks, want.CellUpdates, want.Fallbacks)
				}
				if !slices.Equal(got.BestHap, want.BestHap) {
					t.Fatalf("fallback grid, haps %d: BestHap %v, want %v", nh, got.BestHap, want.BestHap)
				}
				tail := nh - nh%lanes.Width
				for r := range rg.Reads {
					for h := 0; h < nh; h++ {
						g, w := got.Likelihoods[r*nh+h], want.Likelihoods[r*nh+h]
						if source[r] == h && h < tail {
							if math.Abs(g-w) > laneTolerance {
								t.Fatalf("fallback grid, haps %d: read %d hap %d likelihood %v, want %v ± %g", nh, r, h, g, w, laneTolerance)
							}
						} else if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("fallback grid, haps %d: read %d hap %d likelihood %v, want %v", nh, r, h, g, w)
						}
					}
				}
			}
		})
	}
}

// fallbackRegion builds a region whose pairs mostly underflow float32:
// nh independent random haplotypes of 200–249 bases, and reads of
// 150–199 bases, h%4 of them sampled (with a few errors) from haplotype
// h and extra more unrelated to every haplotype, shuffled. A read
// underflows against every haplotype but its source, so haplotype h has
// |reads| − h%4 pairs awaiting the float64 redo: every residue mod 4
// on any four consecutive haplotypes. source[r] is read r's haplotype
// (-1 when unrelated) and redos the number of underflowing pairs.
func fallbackRegion(rng *rand.Rand, nh, extra int) (rg *Region, source []int, redos int) {
	rg = &Region{}
	for h := 0; h < nh; h++ {
		rg.Haps = append(rg.Haps, genome.Random(rng, 200+rng.Intn(50)))
		for k := 0; k < h%4; k++ {
			source = append(source, h)
		}
	}
	for k := 0; k < extra; k++ {
		source = append(source, -1)
	}
	rng.Shuffle(len(source), func(i, j int) { source[i], source[j] = source[j], source[i] })
	for _, h := range source {
		m := 150 + rng.Intn(50)
		read := genome.Random(rng, m)
		if h >= 0 {
			off := rng.Intn(len(rg.Haps[h]) - m + 1)
			copy(read, rg.Haps[h][off:])
			for k := 0; k < m/20+1; k++ {
				read[rng.Intn(m)] = genome.Base(rng.Intn(4))
			}
			redos--
		}
		qual := make([]byte, m)
		for i := range qual {
			qual[i] = byte(10 + rng.Intn(40))
		}
		rg.Reads = append(rg.Reads, read)
		rg.Quals = append(rg.Quals, qual)
	}
	return rg, source, redos + len(source)*nh
}

func randomRegion(rng *rand.Rand, reads, haps int) *Region {
	rg := &Region{}
	for h := 0; h < haps; h++ {
		rg.Haps = append(rg.Haps, genome.Random(rng, 100+rng.Intn(100)))
	}
	for r := 0; r < reads; r++ {
		read, qual, _ := randomReadHap(rng)
		rg.Reads = append(rg.Reads, read)
		rg.Quals = append(rg.Quals, qual)
	}
	return rg
}

// The steady-state region loop must be allocation-free once the
// scratch is warm: the zero-allocation invariant the PR gates on. The
// region's random reads underflow against its random haplotypes, so
// the float64 redo's pending list and sort are inside the loop.
func TestEvaluateRegionIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rg := randomRegion(rng, 6, 3)
	s := NewScratch()
	if res := EvaluateRegionInto(rg, s); res.Fallbacks == 0 { // warm the scratch
		t.Fatal("region never takes the float64 redo")
	}
	n := testing.AllocsPerRun(20, func() {
		EvaluateRegionInto(rg, s)
	})
	if n != 0 {
		t.Fatalf("AllocsPerRun = %v, want 0", n)
	}
}

// Unpooled scalar evaluation (EvaluateRegion) versus the pooled
// production path of a four-haplotype region, which runs entirely in
// read lanes, and of a four-haplotype region where 42 of 48 pairs take
// the float64 redo (fallbackRegion). The pooled sides run once per
// read-row tier — tier=avx2 the assembly sweeps, tier=off the portable
// readRowQuad rows.
func BenchmarkEvaluateRegion(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	rg := randomRegion(rng, 8, 4)
	fallback, _, _ := fallbackRegion(rng, 4, 6)
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EvaluateRegion(rg)
		}
	})
	for _, tier := range []string{"avx2", "off"} {
		for _, c := range []struct {
			name string
			rg   *Region
		}{{"pooled", rg}, {"fallback", fallback}} {
			b.Run(c.name+"/tier="+tier, func(b *testing.B) {
				defer cpufeat.ForceForTest(tier)()
				if tier == "avx2" && !cpufeat.AVX2() {
					b.Skip("no AVX2 on this host")
				}
				b.ReportAllocs()
				s := NewScratch()
				for i := 0; i < b.N; i++ {
					EvaluateRegionInto(c.rg, s)
				}
			})
		}
	}
}
