package poa

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
)

func randomWindow(rng *rand.Rand) *Window {
	base := genome.Random(rng, 50+rng.Intn(150))
	w := &Window{}
	for s := 0; s < 3+rng.Intn(5); s++ {
		seq := base.Clone()
		for k := 0; k < len(seq)/15+1; k++ {
			seq[rng.Intn(len(seq))] = genome.Base(rng.Intn(4))
		}
		w.Sequences = append(w.Sequences, seq)
	}
	return w
}

// A Reset graph reused across windows must produce exactly the
// consensus a fresh graph produces: pooled == unpooled.
func TestConsensusIntoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := New()
	for trial := 0; trial < 40; trial++ {
		w := randomWindow(rng)
		wantCons, wantCells := ConsensusInto(w, DefaultParams(), New())
		gotCons, gotCells := ConsensusInto(w, DefaultParams(), g)
		if !gotCons.Equal(wantCons) {
			t.Fatalf("trial %d: consensus differs:\n got %v\nwant %v", trial, gotCons, wantCons)
		}
		if gotCells != wantCells {
			t.Fatalf("trial %d: cells %d, want %d", trial, gotCells, wantCells)
		}
	}
}

// Reset must leave no stale state behind: interleaving big and small
// windows stresses the truncated node storage and DP buffers.
func TestResetReuseAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := New()
	for trial := 0; trial < 10; trial++ {
		big := randomWindow(rng)
		small := &Window{Sequences: []genome.Seq{genome.Random(rng, 10)}}
		for _, w := range []*Window{big, small, big} {
			want, _ := ConsensusInto(w, DefaultParams(), New())
			got, _ := ConsensusInto(w, DefaultParams(), g)
			if !got.Equal(want) {
				t.Fatalf("trial %d: consensus differs after size change", trial)
			}
		}
	}
}

// Steady-state pooled windows should allocate far less than fresh
// graphs; the consensus result itself is the only retained slice.
func TestConsensusIntoAllocsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	w := randomWindow(rng)
	g := New()
	ConsensusInto(w, DefaultParams(), g) // warm
	pooled := testing.AllocsPerRun(20, func() {
		ConsensusInto(w, DefaultParams(), g)
	})
	fresh := testing.AllocsPerRun(20, func() {
		ConsensusInto(w, DefaultParams(), New())
	})
	// One allocation for the returned consensus; allow a little slack
	// for map-free incidentals but stay far under the fresh-graph cost.
	if pooled > 4 {
		t.Fatalf("pooled AllocsPerRun = %v, want <= 4 (fresh = %v)", pooled, fresh)
	}
	if pooled*10 > fresh {
		t.Fatalf("pooled (%v) not clearly below fresh (%v)", pooled, fresh)
	}
}

// Fresh-graph versus Reset-graph window consensus: the bench
// harness's poa before/after pair.
func BenchmarkConsensus(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	windows := make([]*Window, 8)
	for i := range windows {
		windows[i] = randomWindow(rng)
	}
	p := DefaultParams()
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ConsensusInto(windows[i%len(windows)], p, New())
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		g := New()
		for i := 0; i < b.N; i++ {
			ConsensusInto(windows[i%len(windows)], p, g)
		}
	})
}
