package phmm

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/lanes"
)

// TestRowLanesMatchesRowQuad pins the tier-dispatched two-row entry
// (rowPair: the AVX2 assembly on amd64 hosts that have it) to
// sequential pure-Go quad sweeps on separate buffers, bit-for-bit: both
// replay the same per-lane operations in the same rounding order with
// the same flush points, so there is no tolerance here, and the
// in-place write of row i+1 over row i-1 is checked against a row that
// never shared storage. Each trial steps m = 1…5 rows, each with its
// own mask and priors, the way forwardLanes does (an odd first row
// alone, then pairs), and compares the last two.
// Two input families: mid-range values (nothing near the floor), and
// the flush-boundary hammer — previous-row values that are 0 or
// log-uniform in [2^-93, 2^-78], the only values the flushed
// recurrence can hand itself near the floor, under priors spanning
// Phred 2…93 so outputs land on both sides of 2^-93 in every lane
// pattern. Widths cover n = 1, 2, 3 and then odd and even n up to 67.
func TestRowLanesMatchesRowQuad(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	wide := haveRowAsm && cpufeat.AVX2()
	midRange := func() float32 { return rng.Float32() * 1e3 }
	nearFloor := func() float32 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return float32(math.Ldexp(1+rng.Float64(), -93+rng.Intn(15)))
	}
	for _, tc := range []struct {
		name   string
		trials int
		value  func() float32
		phred  func() int
		hammer bool
	}{
		{"mid-range", 200, midRange, func() int { return 10 + rng.Intn(30) }, false},
		{"flush-boundary", 600, nearFloor, func() int { return []int{2, 10, 20, 30, 45, 93}[rng.Intn(6)] }, true},
	} {
		flushed, kept := 0, 0
		for trial := 0; trial < tc.trials; trial++ {
			n := 1 + trial%3
			if trial >= 3 {
				n = 1 + rng.Intn(67)
			}
			w := (n + 1) * lanes.Width
			mk := func() []float32 {
				s := make([]float32, w)
				for i := range s {
					s[i] = tc.value()
				}
				return s
			}
			mkRow := func() laneRow {
				r := laneRow{mask: make([]uint8, n)}
				for i := range r.mask {
					r.mask[i] = uint8(rng.Intn(256))
				}
				err := qualToErr[tc.phred()]
				r.priorMatch, r.priorMismatch = float32(1-err), float32(err/3)
				return r
			}
			m := 1 + trial%5
			rows := make([]laneRow, m)
			for r := range rows {
				rows[r] = mkRow()
			}

			// Reference: every row swept from the one before it into
			// buffers of its own, one rowQuad sweep per Quad (rowLanes).
			want := make([][3][]float32, m+1)
			want[0] = [3][]float32{mk(), mk(), mk()}
			for r := range rows {
				want[r+1] = [3][]float32{mk(), mk(), mk()}
				rowLanes(&rows[r], &want[r], &want[r+1], n)
			}

			// Under test: forwardLanes' stepping over two buffer sets — an
			// odd first row alone, then pairs, row i+1 over row i-1.
			prev := [3][]float32{slices.Clone(want[0][0]), slices.Clone(want[0][1]), slices.Clone(want[0][2])}
			cur := [3][]float32{mk(), mk(), mk()}
			p, c := &prev, &cur
			i := 0
			if m%2 == 1 {
				rowLanes(&rows[0], p, c, n)
				p, c = c, p
				i = 1
			}
			for ; i < m; i += 2 {
				rowPair(wide, &rows[i], &rows[i+1], p, c, n)
			}

			// p holds row m and c row m-1 (the untouched row 0 when m = 1).
			for _, chk := range []struct {
				row       int
				got, want *[3][]float32
			}{{m, p, &want[m]}, {m - 1, c, &want[m-1]}} {
				for k, name := range []string{"M", "I", "D"} {
					got, want := chk.got[k], chk.want[k]
					for o := 0; o < w; o++ {
						if math.Float32bits(got[o]) != math.Float32bits(want[o]) {
							t.Fatalf("%s trial %d (n=%d, m=%d, asm=%v): row %d %s[%d] = %x, want %x",
								tc.name, trial, n, m, wide, chk.row, name, o,
								math.Float32bits(got[o]), math.Float32bits(want[o]))
						}
						if chk.row == 0 || o < lanes.Width {
							continue // the input row; column 0 is the all-zero boundary
						}
						if want[o] == 0 {
							flushed++
						} else {
							kept++
						}
					}
					if i := firstSubnormal(want); tc.hammer && i >= 0 {
						t.Fatalf("%s trial %d: row %d %s[%d] = %g is below the flush floor", tc.name, trial, chk.row, name, i, want[i])
					}
				}
			}
		}
		if tc.hammer && (flushed < tc.trials || kept < tc.trials) {
			t.Fatalf("%s never straddled the floor: %d outputs flushed, %d kept", tc.name, flushed, kept)
		}
	}
}

// firstSubnormal returns the index of the first value of row that is
// neither 0 nor at least the flush floor — a violation of the float32
// pass's stored-state invariant — or -1.
func firstSubnormal(row []float32) int {
	for i, v := range row {
		if v != 0 && !(v >= flushFloor32) {
			return i
		}
	}
	return -1
}

// TestNoSubnormalStored is the property the flush floor exists for:
// after the float32 forward pass — scalar forwardInto, and the lane
// pass through both rowLanes dispatches (the process's SIMD tier, and
// the portable rowQuad sweeps forced by "off") — every DP state value
// is 0 or ≥ 2^-93, so no later multiply can produce or consume a
// subnormal. Reads are prefixes of one 250-base read, so the rows
// inspected are rows 40, 64, 100, 151 and 250 of the same DP.
func TestNoSubnormalStored(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for _, simd := range []string{"auto", "off"} {
		restore := cpufeat.ForceForTest(simd)
		// Haplotype counts 1…48 on the short haplotypes, fewer on the
		// long ones: the cost is n × count and the long axis only needs
		// one scalar-only and one lane-group shape.
		for _, shape := range []struct {
			n      int
			counts []int
		}{{120, []int{1, 7, 8, 19, 48}}, {400, []int{1, 8, 19}}, {2400, []int{1, 8}}} {
			n := shape.n
			base := genome.Random(rng, n)
			for _, nh := range shape.counts {
				haps := make([]genome.Seq, nh)
				for h := range haps {
					haps[h] = base.Clone()
					for k := 0; k < h; k++ {
						haps[h][rng.Intn(n)] = genome.Base(rng.Intn(4))
					}
					haps[h] = haps[h][:n-rng.Intn(n/8)] // ragged
				}
				// On-target read (a slice of the haplotype base where it
				// fits, with a few errors): the off-target mass is what
				// decays through the floor.
				read := genome.Random(rng, 250)
				if n > 250 {
					copy(read, base[rng.Intn(n-250):])
				}
				qual := make([]byte, 250)
				for i := range qual {
					qual[i] = byte(2 + rng.Intn(92)) // Phred 2…93
				}
				s := NewScratch()
				for _, m := range []int{40, 64, 100, 151, 250} {
					for _, hap := range haps {
						if simd != "auto" {
							break // the scalar pass has no SIMD tiers
						}
						forwardInto(read[:m], qual[:m], hap, initialScale32, flushFloor32, &s.rows32)
						for k, row := range s.rows32 {
							if i := firstSubnormal(row[:len(hap)+1]); i >= 0 {
								t.Fatalf("simd=%s n=%d m=%d: scalar row %d[%d] = %g is below the flush floor", simd, n, m, k, i, row[i])
							}
						}
					}
					for g := 0; g < prepareGroups(haps, s); g++ {
						grp := &s.groups[g]
						forwardLanes(read[:m], qual[:m], grp, &s.laneRows)
						for k, row := range s.laneRows {
							if i := firstSubnormal(row[:(grp.maxN+1)*lanes.Width]); i >= 0 {
								t.Fatalf("simd=%s n=%d m=%d group %d: lane row %d[%d] = %g is below the flush floor", simd, n, m, g, k, i, row[i])
							}
						}
					}
				}
			}
		}
		restore()
	}
}

// TestRowLanesSimdOffMatches pins GBENCH_SIMD=off and re-runs a full
// lane-batched region evaluation: rowLanes must fall back to the
// portable quad sweeps and produce bit-identical likelihoods to the
// default (assembly on amd64) dispatch.
func TestRowLanesSimdOffMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	mkSeq := func(n int) genome.Seq {
		s := make(genome.Seq, n)
		for i := range s {
			s[i] = genome.Base(rng.Intn(4))
		}
		return s
	}
	rg := &Region{}
	for h := 0; h < 2*lanes.Width+3; h++ {
		rg.Haps = append(rg.Haps, mkSeq(40+rng.Intn(30)))
	}
	for r := 0; r < 6; r++ {
		seq := mkSeq(20 + rng.Intn(20))
		quals := make([]byte, len(seq))
		for i := range quals {
			quals[i] = byte(10 + rng.Intn(30))
		}
		rg.Reads = append(rg.Reads, seq)
		rg.Quals = append(rg.Quals, quals)
	}
	def := EvaluateRegionInto(rg, NewScratch())
	defLik := append([]float64(nil), def.Likelihoods...)
	restore := cpufeat.ForceForTest("off")
	defer restore()
	off := EvaluateRegionInto(rg, NewScratch())
	if len(defLik) != len(off.Likelihoods) {
		t.Fatalf("likelihood count differs: %d vs %d", len(defLik), len(off.Likelihoods))
	}
	for i := range defLik {
		if math.Float64bits(defLik[i]) != math.Float64bits(off.Likelihoods[i]) {
			t.Fatalf("pair %d: default dispatch %v != GBENCH_SIMD=off %v", i, defLik[i], off.Likelihoods[i])
		}
	}
}
