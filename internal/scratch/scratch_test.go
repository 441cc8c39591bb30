package scratch

import "testing"

func TestArenaReuse(t *testing.T) {
	a := New()
	b1 := a.Int32s(100)
	b2 := a.Int32s(50)
	if &b1[0] == &b2[0] {
		t.Fatal("two gets in one epoch must return distinct buffers")
	}
	b1[0], b2[0] = 7, 9
	a.Reset()
	r1 := a.Int32s(100)
	r2 := a.Int32s(50)
	if &r1[0] != &b1[0] || &r2[0] != &b2[0] {
		t.Fatal("after Reset, buffers must be reused in call order")
	}
}

func TestArenaRewindReusesSinceMark(t *testing.T) {
	a := New()
	keep := a.Float32s(16)
	m := a.Mark()
	r1 := a.Float32s(32)
	i1 := a.Ints(4)
	a.Rewind(m)
	r2 := a.Float32s(32)
	i2 := a.Ints(4)
	if &r2[0] != &r1[0] || &i2[0] != &i1[0] {
		t.Fatal("after Rewind, the buffers drawn since the mark must be reused in call order")
	}
	if next := a.Float32s(16); &next[0] == &keep[0] {
		t.Fatal("a buffer drawn before the mark must not be handed out again")
	}
}

func TestArenaGrowsSlot(t *testing.T) {
	a := New()
	small := a.Float32s(8)
	_ = small
	a.Reset()
	big := a.Float32s(1024)
	if len(big) != 1024 {
		t.Fatalf("len = %d, want 1024", len(big))
	}
	a.Reset()
	again := a.Float32s(1024)
	if &again[0] != &big[0] {
		t.Fatal("regrown slot must be retained across Reset")
	}
}

func TestArenaTypesIndependent(t *testing.T) {
	a := New()
	i := a.Ints(4)
	u := a.Uint64s(4)
	f := a.Float32s(4)
	b := a.Int16s(4)
	if len(i) != 4 || len(u) != 4 || len(f) != 4 || len(b) != 4 {
		t.Fatal("wrong lengths")
	}
}

func TestGrow(t *testing.T) {
	buf := make([]int, 0, 16)
	g := Grow(buf, 10)
	if len(g) != 10 || cap(g) != 16 {
		t.Fatalf("Grow reuse: len=%d cap=%d", len(g), cap(g))
	}
	g2 := Grow(g, 32)
	if len(g2) != 32 {
		t.Fatalf("Grow alloc: len=%d", len(g2))
	}
}

// Steady-state arena use must be allocation-free.
func TestArenaZeroAllocSteadyState(t *testing.T) {
	a := New()
	task := func() {
		a.Reset()
		h := a.Int32s(256)
		e := a.Int32s(256)
		w := a.Uint64s(8)
		h[0], e[0], w[0] = 1, 2, 3
	}
	task() // warm: first epoch allocates
	if n := testing.AllocsPerRun(100, task); n != 0 {
		t.Fatalf("steady-state allocs per task = %v, want 0", n)
	}
}
