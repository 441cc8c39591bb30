package pileup

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/genome"
	"repro/internal/simio"
)

func TestCountRegionPerfectAlignment(t *testing.T) {
	seq := genome.MustFromString("ACGTACGT")
	a := &simio.Alignment{Pos: 10, Cigar: simio.Cigar{{Len: 8, Op: simio.CigarMatch}}, Seq: seq}
	rg := &Region{Start: 0, End: 30, Alignments: []*simio.Alignment{a}}
	counts, reads := CountRegion(rg)
	if reads != 1 {
		t.Errorf("reads = %d", reads)
	}
	for i, b := range seq {
		if counts[10+i].Base[0][b] != 1 {
			t.Errorf("position %d base %v not counted", 10+i, genome.Seq{b})
		}
		if counts[10+i].Depth() != 1 {
			t.Errorf("position %d depth %d", 10+i, counts[10+i].Depth())
		}
	}
	if counts[9].Depth() != 0 || counts[18].Depth() != 0 {
		t.Error("counts leaked outside the alignment span")
	}
}

func TestCountRegionIndelsAndClips(t *testing.T) {
	// 2S3M1I2M2D1M: read = SSMMMIMMM, ref spans 3+2+2+1 = 8 bases.
	seq := genome.MustFromString("TTACGTAAC")
	a := &simio.Alignment{Pos: 5, Cigar: simio.Cigar{{Len: 2, Op: simio.CigarSoftClip}, {Len: 3, Op: simio.CigarMatch}, {Len: 1, Op: simio.CigarIns}, {Len: 2, Op: simio.CigarMatch}, {Len: 2, Op: simio.CigarDel}, {Len: 1, Op: simio.CigarMatch}}, Seq: seq, Reverse: true}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	rg := &Region{Start: 0, End: 20, Alignments: []*simio.Alignment{a}}
	counts, _ := CountRegion(rg)
	// Matched ref positions: 5,6,7 (ACG), 8,9 (TA), 12 (C); 10,11 deleted.
	for _, pos := range []int{5, 6, 7, 8, 9, 12} {
		if counts[pos].Depth() != 1 {
			t.Errorf("position %d depth %d, want 1", pos, counts[pos].Depth())
		}
		if counts[pos].Base[1][seqBaseAt(t, a, pos)] != 1 {
			t.Errorf("position %d reverse-strand base not counted", pos)
		}
	}
	if counts[8].Ins[1] != 1 {
		t.Errorf("insertion not recorded at position 8: %+v", counts[8])
	}
	if counts[10].Del[1] != 1 || counts[11].Del[1] != 1 {
		t.Error("deletion positions not recorded")
	}
	if counts[4].Depth() != 0 {
		t.Error("soft clip leaked into counts")
	}
}

// seqBaseAt recovers which read base was aligned to ref position pos.
func seqBaseAt(t *testing.T, a *simio.Alignment, pos int) genome.Base {
	t.Helper()
	refPos, readPos := a.Pos, 0
	for _, e := range a.Cigar {
		switch e.Op {
		case simio.CigarMatch:
			for i := 0; i < e.Len; i++ {
				if refPos == pos {
					return a.Seq[readPos]
				}
				refPos++
				readPos++
			}
		case simio.CigarIns, simio.CigarSoftClip:
			readPos += e.Len
		case simio.CigarDel:
			refPos += e.Len
		}
	}
	t.Fatalf("position %d not aligned", pos)
	return 0
}

func TestRegionClipping(t *testing.T) {
	seq := genome.MustFromString("AAAAAAAAAA")
	a := &simio.Alignment{Pos: 95, Cigar: simio.Cigar{{Len: 10, Op: simio.CigarMatch}}, Seq: seq}
	rg := &Region{Start: 100, End: 110, Alignments: []*simio.Alignment{a}}
	counts, _ := CountRegion(rg)
	// Only positions 100-104 fall inside the window.
	var depth uint32
	for i := range counts {
		depth += counts[i].Depth()
	}
	if depth != 5 {
		t.Errorf("clipped depth %d, want 5", depth)
	}
}

func TestSplitRegionsAssignsOverlaps(t *testing.T) {
	a1 := &simio.Alignment{Pos: 50, Cigar: simio.Cigar{{Len: 100, Op: simio.CigarMatch}}, Seq: make(genome.Seq, 100)}
	a2 := &simio.Alignment{Pos: 950, Cigar: simio.Cigar{{Len: 100, Op: simio.CigarMatch}}, Seq: make(genome.Seq, 100)} // spans two windows
	regions := SplitRegions(2000, []*simio.Alignment{a1, a2}, 1000)
	if len(regions) != 2 {
		t.Fatalf("got %d regions", len(regions))
	}
	if len(regions[0].Alignments) != 2 {
		t.Errorf("region 0 has %d alignments, want 2", len(regions[0].Alignments))
	}
	if len(regions[1].Alignments) != 1 {
		t.Errorf("region 1 has %d alignments, want 1 (boundary-spanning)", len(regions[1].Alignments))
	}
}

func TestSimulatedPileupRecoversReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ref := genome.Random(rng, 3000)
	cfg := simio.DefaultAlignSim()
	cfg.MeanReadLen = 800
	alns := simio.SimulateAlignments(rng, ref, 200, cfg)
	for _, a := range alns {
		if err := a.Validate(); err != nil {
			t.Fatalf("simulated alignment invalid: %v", err)
		}
	}
	regions := SplitRegions(len(ref), alns, 1000)
	correct, covered := 0, 0
	for _, rg := range regions {
		counts, _ := CountRegion(rg)
		for p := range counts {
			if counts[p].Depth() < 5 {
				continue
			}
			covered++
			if b, _, ok := counts[p].MajorityBase(); ok && b == ref[rg.Start+p] {
				correct++
			}
		}
	}
	if covered < 2000 {
		t.Fatalf("only %d positions covered", covered)
	}
	acc := float64(correct) / float64(covered)
	if acc < 0.95 {
		t.Errorf("majority-base accuracy %.3f below 0.95", acc)
	}
}

func TestRunKernelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ref := genome.Random(rng, 5000)
	alns := simio.SimulateAlignments(rng, ref, 100, simio.DefaultAlignSim())
	regions := SplitRegions(len(ref), alns, 1000)
	r1 := must(RunKernelCtx(context.Background(), regions, 1))
	r4 := must(RunKernelCtx(context.Background(), regions, 4))
	if r1.TotalDepth != r4.TotalDepth || r1.ReadLookups != r4.ReadLookups {
		t.Errorf("threading changed results: %+v vs %+v", r1, r4)
	}
	if r1.Counters != r4.Counters || !slices.Equal(r1.TaskStats.Work(), r4.TaskStats.Work()) {
		t.Error("counters or task-order sample sequence depend on the thread count")
	}
	if r1.Regions != len(regions) || r1.TaskStats.Count() != len(regions) {
		t.Error("region bookkeeping wrong")
	}
	if r1.Positions != 5000 {
		t.Errorf("positions %d, want 5000", r1.Positions)
	}
}

func TestMajorityBaseEmpty(t *testing.T) {
	var c Counts
	if _, _, ok := c.MajorityBase(); ok {
		t.Error("empty counts reported a majority base")
	}
}

// must unwraps a RunKernelCtx result; a kernel run under a background
// context with no fault plan armed cannot fail.
func must(res KernelResult, err error) KernelResult {
	if err != nil {
		panic(err)
	}
	return res
}
