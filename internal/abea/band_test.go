package abea

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpufeat"
)

// sameBits is the identity the tiers promise: equal bit patterns, or
// a NaN on both sides (which payload an add of two NaNs forwards is
// the compiler's operand order, not the kernel's).
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// forceAVX2 lifts any GBENCH_SIMD override for the test and reports
// whether the assembly bodies can run here.
func forceAVX2(t *testing.T) bool {
	t.Cleanup(cpufeat.ForceForTest("avx2"))
	return haveBandAsm && cpufeat.AVX2()
}

// addend returns a d with d + c == sum bit for bit, searching the few
// floats around sum - c; ok is false when rounding leaves no such d.
func addend(sum, c float32) (d float32, ok bool) {
	d = sum - c
	for _, cand := range []float32{d, math.Nextafter32(d, negInf), math.Nextafter32(d, -negInf)} {
		if cand+c == sum {
			return cand, true
		}
	}
	return d, false
}

// bandCase is one interior as alignLanesInto lays it out: the padded
// band buffers of a W == n band, shifted by the band moves, and the
// four emission operands at arbitrary (unaligned) offsets.
type bandCase struct {
	x, mu, sd, ls  []float32
	up, left, diag []float32
	xo, mo, so, lo int // operand offsets, for the failure message
	s1, s2         int
}

func newBandCase(rng *rand.Rand, n int) *bandCase {
	c := &bandCase{s1: rng.Intn(2), s2: rng.Intn(3) - 1}
	operand := func(off *int) []float32 {
		*off = rng.Intn(9)
		return make([]float32, *off+n+rng.Intn(9))[*off:][:n]
	}
	c.x, c.mu, c.sd, c.ls = operand(&c.xo), operand(&c.mo), operand(&c.so), operand(&c.lo)
	prev, prev2 := make([]float32, n+2), make([]float32, n+2) // negInf pad, n cells, negInf pad
	for o := 0; o < n; o++ {
		c.mu[o] = float32(60 + 70*rng.Float64())
		c.sd[o] = float32(1 + 2*rng.Float64())
		c.ls[o] = float32(math.Log(float64(c.sd[o])))
		c.x[o] = c.mu[o] + float32(rng.NormFloat64())*c.sd[o]
		prev[o+1] = -float32(rng.Float64()) * 1000
		prev2[o+1] = -float32(rng.Float64()) * 1000
		if rng.Intn(8) == 0 {
			prev[o+1] = negInf // a band edge inside the predecessor
		}
		if rng.Intn(8) == 0 {
			prev2[o+1] = negInf
		}
	}
	prev[0], prev[n+1], prev2[0], prev2[n+1] = negInf, negInf, negInf, negInf
	c.up, c.left, c.diag = prev[c.s1+1:][:n], prev[c.s1:][:n], prev2[c.s2+1:][:n]
	return c
}

// edge rewrites cell o into one of the shapes the sweep must not get
// wrong: exact ties between the three moves, signed zeros, a z that is
// subnormal, a z*z that overflows, NaN on either side of each max.
// Predecessor slots shared with a neighbouring cell are overwritten;
// the three bodies under test read the same buffers, so that only
// changes what the neighbour computes.
func (c *bandCase) edge(rng *rand.Rand, o int) {
	nan := float32(math.NaN())
	switch rng.Intn(10) {
	case 0, 1: // stay == step, and (case 1) == skip too
		emit := emissionRef(c.x[o], c.mu[o], c.sd[o], c.ls[o])
		sum := c.up[o] + lpStay
		d, ok := addend(sum, lpStep)
		if !ok {
			return
		}
		c.diag[o] = d
		if l, ok := addend(sum+emit, lpSkip); ok && rng.Intn(2) == 1 {
			c.left[o] = l
		}
	case 2: // x == mu: z = +0; and -0 - 0 = -0 through a zero model mean
		c.x[o] = c.mu[o]
		if rng.Intn(2) == 0 {
			c.mu[o], c.x[o] = 0, float32(math.Copysign(0, -1))
		}
	case 3: // subnormal z, z*z underflows
		c.mu[o], c.x[o] = 0, math.Float32frombits(uint32(1+rng.Intn(1<<20)))
	case 4: // huge z*z: emit = -Inf, stay == step == -Inf
		c.x[o] = float32([]float64{1e20, -1e20, 3e38, math.Inf(1), math.Inf(-1)}[rng.Intn(5)])
	case 5: // NaN emission: stay and step NaN, Go keeps the NaN incumbent
		c.x[o] = nan
	case 6: // NaN challenger: Go keeps the finite incumbent
		c.left[o] = nan
	case 7:
		c.diag[o] = nan
	case 8: // every predecessor out of band
		c.up[o], c.left[o], c.diag[o] = negInf, negInf, negInf
	case 9: // below negInf
		c.up[o], c.diag[o] = float32(math.Inf(-1)), -3e38
	}
}

// emissionRef and cellRef are the scalar expressions of AlignInto and
// LogProbMatch, written out again so the hammer does not lean on the
// helpers the bodies under test share.
func emissionRef(x, mu, sd, ls float32) float32 {
	z := (x - mu) / sd
	const logSqrt2Pi = 0.9189385332046727
	return -0.5*z*z - ls - logSqrt2Pi
}

func cellRef(x, mu, sd, ls, up, left, diag float32) float32 {
	emit := emissionRef(x, mu, sd, ls)
	stay := up + lpStay + emit
	step := diag + lpStep + emit
	skip := left + lpSkip
	v := stay
	if step > v {
		v = step
	}
	if skip > v {
		v = skip
	}
	return v
}

// TestBandAsmHammer is the differential at the kernel's own edges:
// every interior length 8..130 (all residues of the 8-lane vector, so
// every overlap of the re-run last vector), both band shifts, operands
// at unaligned offsets, reads through the negInf pads, and the edge
// shapes above. The assembly, the portable quad body and the scalar
// expressions must agree bit for bit, and neither body may write
// outside its n cells.
func TestBandAsmHammer(t *testing.T) {
	asm := forceAVX2(t)
	if !asm {
		t.Log("no AVX2 on this host: portable body against the scalar expressions only")
	}
	rng := rand.New(rand.NewSource(61))
	const canary = float32(12345.5)
	for n := 8; n <= 130; n++ {
		for rep := 0; rep < 12; rep++ {
			c := newBandCase(rng, n)
			for k := rng.Intn(n/2 + 1); k > 0 && rep > 0; k-- {
				c.edge(rng, rng.Intn(n))
			}
			want := make([]float32, n)
			for o := range want {
				want[o] = cellRef(c.x[o], c.mu[o], c.sd[o], c.ls[o], c.up[o], c.left[o], c.diag[o])
			}
			bodies := []struct {
				name string
				run  func(x, mu, sd, ls, up, left, diag, dst []float32)
			}{{"quad", bandSweepQuad}, {"asm", bandSweepAVX2}}
			if !asm {
				bodies = bodies[:1]
			}
			for _, body := range bodies {
				off := 1 + rng.Intn(8)
				buf := make([]float32, off+n+1+rng.Intn(8))
				for i := range buf {
					buf[i] = canary
				}
				body.run(c.x, c.mu, c.sd, c.ls, c.up, c.left, c.diag, buf[off:][:n])
				for i, v := range buf {
					o := i - off
					if o < 0 || o >= n {
						if v != canary {
							t.Fatalf("%s n=%d: wrote buf[%d], outside the %d cells at %d", body.name, n, i, n, off)
						}
					} else if !sameBits(v, want[o]) {
						t.Fatalf("%s n=%d s1=%d s2=%d offsets x%d mu%d sd%d ls%d dst%d: cell %d = %x (%v), want %x (%v)",
							body.name, n, c.s1, c.s2, c.xo, c.mo, c.so, c.lo, off, o,
							math.Float32bits(v), v, math.Float32bits(want[o]), want[o])
					}
				}
			}
		}
	}
}

// TestBandArgmaxHammer pins the vector arg-max to the scalar loop's
// strict-greater first-winner rule for every band width 8..130: the
// maximum duplicated at every pair of lane positions a vector apart or
// across the overlapped last vector, +0 against -0, NaN cells, an
// all-negInf band, and cells below negInf under a negInf maximum (the
// scalar loop never leaves offset 0 then).
func TestBandArgmaxHammer(t *testing.T) {
	if !forceAVX2(t) {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(62))
	check := func(what string, band []float32) {
		t.Helper()
		if got, want := bandArgmaxAVX2(band), bandArgmax(band); got != want {
			t.Fatalf("%s, W=%d: arg-max %d, scalar loop %d (band %v)", what, len(band), got, want, band)
		}
	}
	inf := float32(math.Inf(-1))
	for W := 8; W <= 130; W++ {
		// A band in a larger buffer, so the last vector's load ends at
		// an arbitrary address.
		band := make([]float32, W+rng.Intn(8))[:W]
		fill := func() {
			for o := range band {
				band[o] = -float32(rng.Float64()) * 1000
				if rng.Intn(4) == 0 {
					band[o] = negInf
				}
			}
		}
		for p := 0; p < W; p++ {
			for _, q := range []int{p, p + 1, p + 7, p + 8, p + 9, W - 8, W - 1, rng.Intn(W)} {
				if q < 0 || q >= W {
					continue
				}
				fill()
				band[p], band[q] = 1, 1
				check("duplicated maximum", band)
				band[p], band[q] = 0, float32(math.Copysign(0, -1))
				check("+0 then -0", band)
				band[p], band[q] = band[q], band[p]
				check("-0 then +0", band)
				band[p] = float32(math.NaN())
				check("NaN cell", band)
			}
		}
		for rep := 0; rep < 20; rep++ {
			fill()
			check("random", band)
		}
		for o := range band {
			band[o] = negInf
		}
		check("all negInf", band)
		for rep := 0; rep < 8; rep++ {
			band[rng.Intn(W)] = []float32{inf, -3e38, float32(math.NaN())}[rng.Intn(3)]
			check("below negInf", band)
		}
		band[rng.Intn(W)] = -9.9e29
		check("one cell above negInf", band)
		for o := range band {
			band[o] = inf
		}
		check("all -Inf", band)
	}
}
