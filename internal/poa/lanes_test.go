package poa

import (
	"math/rand"
	"testing"

	"repro/internal/genome"
	"repro/internal/lanes"
)

// addBoth adds seq to a scalar-pinned graph and a lane graph and
// checks that every observable the backtracked fusion depends on is
// bit-identical: the full DP score table (int32 vs int16 cells), the
// backtracked path, the fused graph shape, and CellUpdates.
func addBoth(t *testing.T, gs, gl *Graph, seq genome.Seq, p Params, mode AlignMode, trial, step int) {
	t.Helper()
	gs.forceScalar = true
	gl.forceLanes = true // pin the path under test past the measured work floor
	gs.AddSequenceMode(seq, p, mode)
	gl.AddSequenceMode(seq, p, mode)
	if gs.NumNodes() != gl.NumNodes() || gs.NumEdges() != gl.NumEdges() {
		t.Fatalf("trial %d step %d: graph shape diverged: scalar %d nodes/%d edges, lanes %d/%d",
			trial, step, gs.NumNodes(), gs.NumEdges(), gl.NumNodes(), gl.NumEdges())
	}
	if gs.CellUpdates != gl.CellUpdates {
		t.Fatalf("trial %d step %d: CellUpdates %d (scalar) vs %d (lanes)", trial, step, gs.CellUpdates, gl.CellUpdates)
	}
	if len(gs.path) != len(gl.path) {
		t.Fatalf("trial %d step %d: path length %d (scalar) vs %d (lanes)", trial, step, len(gs.path), len(gl.path))
	}
	for i := range gs.path {
		if gs.path[i] != gl.path[i] {
			t.Fatalf("trial %d step %d: path[%d] = %+v (scalar) vs %+v (lanes)", trial, step, i, gs.path[i], gl.path[i])
		}
	}
}

// compareScoreTables checks the freshly written DP tables cell for
// cell over the real (non-padding) columns. Call right after addBoth,
// before another alignment overwrites the tables. V is the node count
// BEFORE the add (the DP's row count), n the sequence length.
func compareScoreTables(t *testing.T, gs, gl *Graph, V, n, trial, step int) {
	t.Helper()
	width := n + 1
	wpad := 1 + (n+15)/16*16
	for r := 0; r <= V; r++ {
		for j := 0; j <= n; j++ {
			want := gs.score[r*width+j]
			got := int32(gl.score16[r*wpad+j])
			if got != want {
				t.Fatalf("trial %d step %d: score[%d][%d] = %d (lanes) vs %d (scalar)", trial, step, r, j, got, want)
			}
		}
	}
}

// TestLanesScalarDifferential fuzzes seeded random windows through
// both paths in lockstep: after every single AddSequence the DP
// tables, backtracked paths, and fused graphs must agree exactly, and
// the final consensi must be byte-identical.
func TestLanesScalarDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	p := DefaultParams()
	for trial := 0; trial < 30; trial++ {
		w := randomWindow(rng)
		gs, gl := New(), New()
		for step, seq := range w.Sequences {
			V := gs.NumNodes()
			if V > 0 {
				if !laneEligible(p, V, len(seq)) {
					t.Fatalf("trial %d step %d: window unexpectedly ineligible (V=%d n=%d)", trial, step, V, len(seq))
				}
			}
			addBoth(t, gs, gl, seq, p, GlobalMode, trial, step)
			if step > 0 { // first sequence seeds the backbone, no DP
				compareScoreTables(t, gs, gl, V, len(seq), trial, step)
			}
		}
		cs, cl := gs.Consensus(), gl.Consensus()
		if !cs.Equal(cl) {
			t.Fatalf("trial %d: consensus differs:\nscalar %v\nlanes  %v", trial, cs, cl)
		}
	}
}

// TestLanesScalarDifferentialFitMode covers the FitMode column-0 and
// moveStart recovery paths (free leading/trailing graph nodes).
func TestLanesScalarDifferentialFitMode(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	p := DefaultParams()
	for trial := 0; trial < 20; trial++ {
		backbone := genome.Random(rng, 80+rng.Intn(120))
		gs, gl := New(), New()
		addBoth(t, gs, gl, backbone, p, GlobalMode, trial, 0)
		for step := 1; step <= 4; step++ {
			// A chunk of the backbone with a few mutations, aligned in
			// FitMode as the chunked-window fusion does.
			lo := rng.Intn(len(backbone) / 2)
			hi := lo + 20 + rng.Intn(len(backbone)-lo-20)
			chunk := backbone[lo:hi].Clone()
			for k := 0; k < len(chunk)/12+1; k++ {
				chunk[rng.Intn(len(chunk))] = genome.Base(rng.Intn(4))
			}
			V := gs.NumNodes()
			addBoth(t, gs, gl, chunk, p, FitMode, trial, step)
			compareScoreTables(t, gs, gl, V, len(chunk), trial, step)
		}
		cs, cl := gs.Consensus(), gl.Consensus()
		if !cs.Equal(cl) {
			t.Fatalf("trial %d: FitMode consensus differs", trial)
		}
	}
}

// TestLanesScalarDifferentialParams sweeps non-default scoring,
// including asymmetric and tie-heavy configurations where the
// first-candidate-wins recovery is most stressed.
func TestLanesScalarDifferentialParams(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	params := []Params{
		{Match: 1, Mismatch: -1, Gap: -1}, // maximal tie density
		{Match: 2, Mismatch: -3, Gap: -1},
		{Match: 5, Mismatch: -4, Gap: -8},
		{Match: 1, Mismatch: 0, Gap: -1}, // zero mismatch: diag/up ties abound
	}
	for pi, p := range params {
		for trial := 0; trial < 8; trial++ {
			w := randomWindow(rng)
			gs, gl := New(), New()
			for step, seq := range w.Sequences {
				addBoth(t, gs, gl, seq, p, GlobalMode, pi*100+trial, step)
			}
			cs, cl := gs.Consensus(), gl.Consensus()
			if !cs.Equal(cl) {
				t.Fatalf("params %d trial %d: consensus differs", pi, trial)
			}
		}
	}
}

// TestLaneEligibleGuard pins the range proof: windows whose score
// magnitude bound exceeds int16 must fall back to the scalar path and
// still produce the scalar result.
func TestLaneEligibleGuard(t *testing.T) {
	if laneEligible(Params{Match: 3, Mismatch: -5, Gap: -4}, 200, 200) != true {
		t.Fatal("typical window should be lane-eligible")
	}
	if laneEligible(Params{Match: 3000, Mismatch: -3000, Gap: -3000}, 200, 200) {
		t.Fatal("extreme scores must be ineligible")
	}
	if laneEligible(DefaultParams(), 10000, 1000) {
		t.Fatal("huge graphs must be ineligible")
	}
	if laneEligible(Params{Match: 1, Mismatch: -1, Gap: 1}, 10, 10) {
		t.Fatal("a gap bonus must be ineligible: the wide scan's sentinel proof needs gap <= 0")
	}
	// An ineligible configuration still computes the scalar answer.
	rng := rand.New(rand.NewSource(54))
	w := randomWindow(rng)
	p := Params{Match: 3000, Mismatch: -5000, Gap: -4000}
	want, wantCells := ConsensusScalarInto(w, p, New())
	got, gotCells := ConsensusInto(w, p, New())
	if !got.Equal(want) || gotCells != wantCells {
		t.Fatal("ineligible window diverged from scalar reference")
	}
}

// TestBarelyIneligibleForcedWideFallsBack pins the widened 16-lane
// range proof at its boundary: a window that misses eligibility by a
// hair must take the scalar path even when the caller forces wide
// dispatch (forceLanes overrides the measured work floor, never the
// proof), and must still produce the scalar result. With maxAbs=170
// the bound maxAbs*(V+n+16) <= 32000 admits V+n <= 172: a 90-base
// backbone re-aligned against itself (V=n=90, V+n=180) sits just
// outside, a 78-base one (V+n=156) just inside.
func TestBarelyIneligibleForcedWideFallsBack(t *testing.T) {
	p := Params{Match: 170, Mismatch: -170, Gap: -1}
	if laneEligible(p, 78, 78) != true {
		t.Fatal("V+n=156 should pass the widened range proof")
	}
	if laneEligible(p, 90, 90) {
		t.Fatal("V+n=180 should fail the widened range proof")
	}
	rng := rand.New(rand.NewSource(59))
	backbone := genome.Random(rng, 90)
	mutated := backbone.Clone()
	for k := 0; k < 6; k++ {
		mutated[rng.Intn(len(mutated))] = genome.Base(rng.Intn(4))
	}

	gs := New()
	gs.forceScalar = true
	gs.AddSequenceMode(backbone, p, GlobalMode)
	gs.AddSequenceMode(mutated, p, GlobalMode)

	gw := New()
	gw.forceLanes = true
	gw.AddSequenceMode(backbone, p, GlobalMode)
	gw.AddSequenceMode(mutated, p, GlobalMode)

	if len(gw.score16) != 0 {
		t.Fatal("barely-ineligible window still took the wide int16 path under forced dispatch")
	}
	if gw.NumNodes() != gs.NumNodes() || gw.NumEdges() != gs.NumEdges() {
		t.Fatal("fallback graph shape diverged from the scalar reference")
	}
	if !gw.Consensus().Equal(gs.Consensus()) {
		t.Fatal("fallback consensus diverged from the scalar reference")
	}
}

// TestCSRSnapshotInvalidation verifies the snapshot is rebuilt after
// every mutation kind — including the weight-only addEdge branch that
// leaves the topology (and the topo-order cache) untouched.
func TestCSRSnapshotInvalidation(t *testing.T) {
	g := New()
	a := g.addNode(0)
	b := g.addNode(1)
	g.addEdge(a, b, 1)
	c := g.csrSnapshot(g.topoOrder())
	if got := c.inW[0]; got != 1 {
		t.Fatalf("initial weight = %d, want 1", got)
	}
	g.addEdge(a, b, 2) // weight bump only: dirty stays false
	if g.csrOK {
		t.Fatal("weight-only addEdge must invalidate the CSR snapshot")
	}
	c = g.csrSnapshot(g.topoOrder())
	if got := c.inW[0]; got != 3 {
		t.Fatalf("weight after bump = %d, want 3", got)
	}
	g.addNode(2)
	if g.csrOK {
		t.Fatal("addNode must invalidate the CSR snapshot")
	}
	g.Reset()
	if g.csrOK {
		t.Fatal("Reset must invalidate the CSR snapshot")
	}
}

// TestLaneMinWorkDispatch pins the measured-profitability gate: an
// eligible window below the work floor must take the scalar path (its
// int16 table is never grown), and the floor at zero restores lanes.
// The consensus must not change either way — the floor is pure policy.
func TestLaneMinWorkDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	// Small window: every alignment's V*n stays well under the floor
	// cap, so pinning the floor to the cap must route all of them to
	// the scalar path.
	base := genome.Random(rng, 40)
	w := &Window{}
	for s := 0; s < 3; s++ {
		seq := base.Clone()
		seq[rng.Intn(len(seq))] = genome.Base(rng.Intn(4))
		w.Sequences = append(w.Sequences, seq)
	}
	p := DefaultParams()
	want, _ := ConsensusScalarInto(w, p, New())

	restore := lanes.WideMinWork.Set(lanes.WideMinWorkCap)
	g := New()
	got, _ := ConsensusInto(w, p, g)
	if len(g.score16) != 0 {
		t.Fatal("window below the work floor still took the lane path")
	}
	if !got.Equal(want) {
		t.Fatal("scalar-routed consensus diverged")
	}
	restore()

	defer lanes.WideMinWork.Set(0)()
	g = New()
	got, _ = ConsensusInto(w, p, g)
	if len(g.score16) == 0 {
		t.Fatal("zero work floor did not restore the lane path")
	}
	if !got.Equal(want) {
		t.Fatal("lane-routed consensus diverged")
	}
}

// TestProbeWideMinWork checks the microprobe returns an in-range,
// cap-respecting answer on this host.
func TestProbeWideMinWork(t *testing.T) {
	got := probeWideMinWork()
	if got < 0 || got > lanes.WideMinWorkCap {
		t.Fatalf("probe returned %d, out of [0, %d]", got, lanes.WideMinWorkCap)
	}
}

// BenchmarkAddSequenceLanes is the scalar-vs-lane single-thread pair
// on realistic windows. The work floor is pinned
// to zero so both sides measure what their names promise regardless of
// the probe's verdict on the bench host.
func BenchmarkAddSequenceLanes(b *testing.B) {
	defer lanes.WideMinWork.Set(0)()
	rng := rand.New(rand.NewSource(55))
	windows := make([]*Window, 8)
	for i := range windows {
		windows[i] = randomWindow(rng)
	}
	p := DefaultParams()
	b.Run("scalar", func(b *testing.B) {
		g := New()
		for i := 0; i < b.N; i++ {
			ConsensusScalarInto(windows[i%len(windows)], p, g)
		}
	})
	b.Run("lanes", func(b *testing.B) {
		g := New()
		for i := 0; i < b.N; i++ {
			ConsensusInto(windows[i%len(windows)], p, g)
		}
	})
}
