package lanes

import (
	"math"
	"math/rand"
	"testing"
)

func randLane(rng *rand.Rand, scale float32) Lane8 {
	return Lane8{randQuad(rng, scale), randQuad(rng, scale)}
}

func randQuad(rng *rand.Rand, scale float32) Quad {
	r := func() float32 { return (rng.Float32() - 0.5) * 2 * scale }
	return Quad{r(), r(), r(), r()}
}

func (q Quad) array() [4]float32 { return [4]float32{q.A, q.B, q.C, q.D} }

func (a Lane8) array() [Width]float32 {
	return [Width]float32{a.Lo.A, a.Lo.B, a.Lo.C, a.Lo.D, a.Hi.A, a.Hi.B, a.Hi.C, a.Hi.D}
}

func splatQuad(x float32) Quad { return Quad{x, x, x, x} }

// FromArray/At must round-trip lane-for-lane; everything else in this
// file leans on them as the lane accessors.
func TestArrayRoundTrip(t *testing.T) {
	in := [Width]float32{1, -2, 3.5, 0, 7, -8.25, 9, 1e-7}
	a := FromArray(in)
	if got := a.array(); got != in {
		t.Fatalf("array() = %v, want %v", got, in)
	}
	for l := 0; l < Width; l++ {
		if a.At(l) != in[l] {
			t.Fatalf("At(%d) = %v, want %v", l, a.At(l), in[l])
		}
	}
}

// Store8 writes a group's eight lanes where the Quad loads find them:
// phmm stores rows with Store8 and sweeps them back as Load4 (and the
// unchecked Load4U/Store4U) pairs at o and o+4.
func TestLoadStore8(t *testing.T) {
	want := [Width]float32{1, 2, 3, 4, 5, 6, 7, 8}
	dst := make([]float32, 12)
	Store8(dst, 2, FromArray(want))
	if dst[0] != 0 || dst[1] != 0 || dst[10] != 0 || dst[11] != 0 {
		t.Fatal("Store8 wrote outside its span")
	}
	got := Lane8{Load4(dst, 2), Load4(dst, 6)}
	if got.array() != want {
		t.Fatalf("Load4 pair = %v, want %v", got.array(), want)
	}
	if gotU := (Lane8{Load4U(&dst[0], 2), Load4U(&dst[0], 6)}); gotU != got {
		t.Fatalf("Load4U pair = %v, want %v", gotU.array(), want)
	}
	out := make([]float32, 12)
	Store4U(&out[0], 2, got.Lo)
	Store4U(&out[0], 6, got.Hi)
	for i := range out {
		if out[i] != dst[i] {
			t.Fatalf("Store4U pair [%d] = %v, want %v", i, out[i], dst[i])
		}
	}
}

// Every element-wise Quad helper must compute exactly the scalar
// expression per lane: no reassociation, no widening.
func TestElementwiseMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 200; trial++ {
		a, b := randQuad(rng, 100), randQuad(rng, 100)
		av, bv := a.array(), b.array()
		s, u := (rng.Float32()-0.5)*10, (rng.Float32()-0.5)*10
		checks := []struct {
			name string
			got  Quad
			want func(l int) float32
		}{
			{"Add", a.Add(b), func(l int) float32 { return av[l] + bv[l] }},
			{"Sub", a.Sub(b), func(l int) float32 { return av[l] - bv[l] }},
			{"Mul", a.Mul(b), func(l int) float32 { return av[l] * bv[l] }},
			{"Div", a.Div(b), func(l int) float32 { return av[l] / bv[l] }},
			{"ScaleAdd2", a.ScaleAdd2(s, b, u), func(l int) float32 { return float32(av[l]*s) + float32(bv[l]*u) }},
			{"Max", a.Max(b), func(l int) float32 {
				if bv[l] > av[l] {
					return bv[l]
				}
				return av[l]
			}},
		}
		for _, c := range checks {
			got := c.got.array()
			for l := range got {
				if want := c.want(l); got[l] != want {
					t.Fatalf("trial %d: %s lane %d = %v, want %v", trial, c.name, l, got[l], want)
				}
			}
		}
	}
}

func TestBlendAndPick2(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 100; trial++ {
		on := randLane(rng, 10)
		off := randLane(rng, 10)
		mask := uint8(rng.Intn(256))
		got := Blend(mask, on, off)
		for l := 0; l < Width; l++ {
			want := off.At(l)
			if mask>>uint(l)&1 != 0 {
				want = on.At(l)
			}
			if got.At(l) != want {
				t.Fatalf("Blend(%08b) lane %d = %v, want %v", mask, l, got.At(l), want)
			}
		}
		// Sel4 is Blend a Quad at a time through the low four mask bits.
		for half, q := range []Quad{Sel4(uint32(mask), on.Lo, off.Lo), Sel4(uint32(mask)>>4, on.Hi, off.Hi)} {
			for l, v := range q.array() {
				if want := got.At(4*half + l); v != want {
					t.Fatalf("Sel4(%08b) half %d lane %d = %v, want %v", mask, half, l, v, want)
				}
			}
		}
	}
}

// Sel must return bit-exactly one of its inputs, including signed
// zeros and infinities — it is the primitive under every blend.
func TestSelBitExact(t *testing.T) {
	ninf := float32(math.Inf(-1))
	cases := []struct{ on, off float32 }{
		{1.5, -2.5},
		{0, float32(math.Copysign(0, -1))},
		{ninf, 3},
		{1e-38, 1e38},
	}
	for _, c := range cases {
		if got := Sel(1, c.on, c.off); math.Float32bits(got) != math.Float32bits(c.on) {
			t.Fatalf("Sel(1, %v, %v) = %v, want on", c.on, c.off, got)
		}
		if got := Sel(0, c.on, c.off); math.Float32bits(got) != math.Float32bits(c.off) {
			t.Fatalf("Sel(0, %v, %v) = %v, want off", c.on, c.off, got)
		}
	}
}

// The lane ops the DP inner loops compose must stay allocation-free.
func TestLaneOpsZeroAlloc(t *testing.T) {
	a, b := splatQuad(1.5), splatQuad(2.5)
	row := make([]float32, Width)
	var sink Lane8
	n := testing.AllocsPerRun(100, func() {
		m := a.ScaleAdd2(0.25, b, 0.5).Mul(b).Sub(a).Div(b)
		m = Sel4(0x5, m.Max(b), a).Add(Load4U(&row[0], 4))
		Store4U(&row[0], 0, m)
		Store8(row, 0, Blend(0xa5, Lane8{m, a}, Lane8{b, m}))
		sink = Lane8{Load4(row, 0), Load4(row, 4)}
	})
	_ = sink
	if n != 0 {
		t.Fatalf("AllocsPerRun = %v, want 0", n)
	}
}

// The shape of phmm's row update: two dependent ScaleAdd2 per column.
func BenchmarkLaneMulAddChain(b *testing.B) {
	x, y := splatQuad(1.00001), splatQuad(0.99999)
	acc := splatQuad(1)
	for i := 0; i < b.N; i++ {
		acc = acc.Mul(x).ScaleAdd2(1, y, 1e-9)
	}
	_ = acc
}
