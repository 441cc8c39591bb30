package poa

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/genome"
)

func TestSingleSequenceConsensusIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := genome.Random(rng, 120)
	g := New()
	g.AddSequence(s, DefaultParams())
	if got := g.Consensus(); !got.Equal(s) {
		t.Errorf("consensus of single sequence differs:\n got %s\nwant %s", got, s)
	}
	if g.NumNodes() != 120 {
		t.Errorf("backbone has %d nodes, want 120", g.NumNodes())
	}
	if g.NumEdges() != 119 {
		t.Errorf("backbone has %d edges, want 119", g.NumEdges())
	}
}

func TestIdenticalSequencesReinforceBackbone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := genome.Random(rng, 100)
	g := New()
	p := DefaultParams()
	for i := 0; i < 5; i++ {
		g.AddSequence(s, p)
	}
	if g.NumNodes() != 100 {
		t.Errorf("identical sequences grew the graph to %d nodes", g.NumNodes())
	}
	if got := g.Consensus(); !got.Equal(s) {
		t.Error("consensus of identical sequences differs from input")
	}
	if g.CellUpdates == 0 {
		t.Error("no cell updates counted")
	}
}

func TestMajorityConsensusOverSNVs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := genome.Random(rng, 150)
	w := &Window{}
	for i := 0; i < 7; i++ {
		w.Sequences = append(w.Sequences, s.Clone())
	}
	for i := 0; i < 3; i++ {
		mut := s.Clone()
		pos := 20 + 40*i
		mut[pos] = genome.Complement(mut[pos])
		w.Sequences = append(w.Sequences, mut)
	}
	cons, cells := ConsensusInto(w, DefaultParams(), New())
	if !cons.Equal(s) {
		t.Errorf("majority consensus incorrect:\n got %s\nwant %s", cons, s)
	}
	if cells == 0 {
		t.Error("no cells counted")
	}
}

func TestConsensusCorrectsIndels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := genome.Random(rng, 120)
	w := &Window{}
	for i := 0; i < 6; i++ {
		w.Sequences = append(w.Sequences, s.Clone())
	}
	// Two reads with a deletion, one with an insertion.
	del := append(s[:50].Clone(), s[53:]...)
	w.Sequences = append(w.Sequences, del, del.Clone())
	ins := append(s[:80].Clone(), genome.MustFromString("AC")...)
	ins = append(ins, s[80:]...)
	w.Sequences = append(w.Sequences, ins)
	cons, _ := ConsensusInto(w, DefaultParams(), New())
	if !cons.Equal(s) {
		t.Errorf("indel consensus incorrect:\n got %s\nwant %s", cons, s)
	}
}

func TestNoisyReadsConsensus(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	truth := genome.Random(rng, 200)
	w := &Window{}
	// 12 reads, each with ~5% random substitutions at distinct spots.
	for r := 0; r < 12; r++ {
		read := truth.Clone()
		for m := 0; m < 10; m++ {
			pos := rng.Intn(len(read))
			read[pos] = genome.Base(rng.Intn(4))
		}
		w.Sequences = append(w.Sequences, read)
	}
	cons, _ := ConsensusInto(w, DefaultParams(), New())
	// Consensus should be much closer to truth than any single read.
	if len(cons) < 190 || len(cons) > 210 {
		t.Fatalf("consensus length %d far from 200", len(cons))
	}
	mismatches := 0
	n := len(cons)
	if len(truth) < n {
		n = len(truth)
	}
	for i := 0; i < n; i++ {
		if cons[i] != truth[i] {
			mismatches++
		}
	}
	if mismatches > 6 {
		t.Errorf("consensus has %d mismatches vs truth", mismatches)
	}
}

func TestAlignedNodeReuse(t *testing.T) {
	s := genome.MustFromString("ACGTACGTAC")
	alt := s.Clone()
	alt[5] = genome.Complement(alt[5])
	g := New()
	p := DefaultParams()
	g.AddSequence(s, p)
	before := g.NumNodes()
	g.AddSequence(alt, p)
	afterFirst := g.NumNodes()
	g.AddSequence(alt.Clone(), p)
	afterSecond := g.NumNodes()
	if afterFirst != before+1 {
		t.Errorf("one SNV added %d nodes, want 1", afterFirst-before)
	}
	if afterSecond != afterFirst {
		t.Errorf("repeated alt sequence added %d more nodes, want 0", afterSecond-afterFirst)
	}
}

func TestTopoOrderValid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := genome.Random(rng, 80)
	g := New()
	p := DefaultParams()
	g.AddSequence(s, p)
	for i := 0; i < 3; i++ {
		mut := s.Clone()
		mut[rng.Intn(len(mut))] = genome.Base(rng.Intn(4))
		g.AddSequence(mut, p)
	}
	order := g.topoOrder()
	rank := make(map[int32]int)
	for r, v := range order {
		rank[v] = r
	}
	for v := range g.nodes {
		for _, e := range g.nodes[v].out {
			if rank[int32(v)] >= rank[e.to] {
				t.Fatalf("edge %d->%d violates topological order", v, e.to)
			}
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	g := New()
	if c := g.Consensus(); c != nil {
		t.Error("empty graph consensus should be nil")
	}
	g.AddSequence(nil, DefaultParams())
	if g.NumNodes() != 0 {
		t.Error("adding empty sequence created nodes")
	}
}

func TestRunKernelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var windows []*Window
	for i := 0; i < 5; i++ {
		truth := genome.Random(rng, 100+rng.Intn(100))
		w := &Window{}
		for r := 0; r < 6; r++ {
			read := truth.Clone()
			read[rng.Intn(len(read))] = genome.Base(rng.Intn(4))
			w.Sequences = append(w.Sequences, read)
		}
		windows = append(windows, w)
	}
	r1 := must(RunKernelCtx(context.Background(), windows, DefaultParams(), 1))
	r4 := must(RunKernelCtx(context.Background(), windows, DefaultParams(), 4))
	if r1.CellUpdates != r4.CellUpdates {
		t.Errorf("threading changed cell counts: %d vs %d", r1.CellUpdates, r4.CellUpdates)
	}
	if r1.Counters != r4.Counters || !slices.Equal(r1.TaskStats.Work(), r4.TaskStats.Work()) {
		t.Error("counters or task-order sample sequence depend on the thread count")
	}
	for i := range r1.Consensi {
		if !r1.Consensi[i].Equal(r4.Consensi[i]) {
			t.Fatalf("window %d consensus differs across thread counts", i)
		}
	}
	if r1.TaskStats.Count() != 5 {
		t.Errorf("task count %d", r1.TaskStats.Count())
	}
}

func TestCellUpdatesComplexity(t *testing.T) {
	// Second alignment computes |V| x n cells.
	rng := rand.New(rand.NewSource(8))
	s := genome.Random(rng, 50)
	g := New()
	p := DefaultParams()
	g.AddSequence(s, p)
	if g.CellUpdates != 0 {
		t.Errorf("backbone construction counted %d cells", g.CellUpdates)
	}
	g.AddSequence(s, p)
	if g.CellUpdates != 50*50 {
		t.Errorf("second alignment counted %d cells, want 2500", g.CellUpdates)
	}
}

// corruptWithCycle seeds a small graph and wires a back-edge so the
// DAG invariant is broken.
func corruptWithCycle(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.AddSequence(genome.Seq{0, 1, 2, 3}, DefaultParams())
	g.addEdge(3, 0, 1) // back-edge: cycle
	if !g.dirty {
		t.Fatal("addEdge should mark the graph dirty")
	}
	return g
}

func TestTopoOrderPanicsOnCycle(t *testing.T) {
	g := corruptWithCycle(t)
	defer func() {
		if r := recover(); r == nil {
			t.Error("Consensus on cyclic graph did not panic")
		}
	}()
	g.Consensus()
}

// must unwraps a RunKernelCtx result; a kernel run under a background
// context with no fault plan armed cannot fail.
func must(res KernelResult, err error) KernelResult {
	if err != nil {
		panic(err)
	}
	return res
}
