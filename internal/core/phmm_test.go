package core

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/digest"
	"repro/internal/faultinject"
	"repro/internal/genome"
	"repro/internal/phmm"
	"repro/internal/shard"
)

// phmmRegionFingerprint pinned phmm's answers at Small, seed 42 when a
// task was one region: shard.Fingerprint of each region's digest,
// folded BestHap first, then Likelihoods.
const phmmRegionFingerprint = 0x7c79c5a2ad857d6c

// TestPhmmPiecesRegroupToRegions: the cut moves no answer. phmm's
// piece answers, regrouped by region and each folded as a region task
// was, give the fingerprint pinned before the cut; and the timed run's
// TaskStats holds each region's cells, summed over its pieces.
func TestPhmmPiecesRegroupToRegions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs phmm at Small")
	}
	b, _ := ByName("phmm")
	b.Prepare(Small, 42)
	pb := b.(*bench[[]*phmm.Region])
	regions := pb.data
	loop := pb.def.loop(regions).(*perTask[phmmData, *phmmPiece, *phmmPiece])
	type answer struct {
		spans []phmmSpan
		best  []int
		lik   []float64
		cells []uint64
	}
	pieces := make([]answer, len(regions))
	err := loop.each(context.Background(), 2, func(i int, p *phmmPiece) {
		pieces[i] = answer{p.spans, slices.Clone(p.bestHap), slices.Clone(p.lik), slices.Clone(p.cells)}
	})
	if err != nil {
		t.Fatal(err)
	}
	best := make([][]int, len(regions))
	lik := make([][]float64, len(regions))
	cells := make([]float64, len(regions))
	for _, a := range pieces {
		for j, s := range a.spans {
			reads := s.hi - s.lo
			best[s.region] = append(best[s.region], a.best[:reads]...)
			lik[s.region] = append(lik[s.region], a.lik[:reads*s.haps]...)
			a.best, a.lik = a.best[reads:], a.lik[reads*s.haps:]
			cells[s.region] += float64(a.cells[j])
		}
	}
	if got := mustRun(b, 2).TaskStats.Work(); !slices.Equal(got, cells) {
		t.Errorf("TaskStats samples %v, want each region's cells %v", got, cells)
	}
	digests := make([]uint64, len(regions))
	for i := range regions {
		h := digest.Seed
		for _, v := range best[i] {
			h = foldInt(h, v)
		}
		for _, v := range lik[i] {
			h = foldFloat(h, v)
		}
		digests[i] = h
	}
	if fp := shard.Fingerprint(digests); fp != phmmRegionFingerprint {
		t.Errorf("regrouped fingerprint %016x, pinned per region %016x", fp, phmmRegionFingerprint)
	}
}

// cutRegions builds regions of the given (reads, haplotypes) shapes;
// reads are 40..79 bases and haplotypes hapLen.
func cutRegions(rng *rand.Rand, hapLen int, shapes ...[2]int) []*phmm.Region {
	regions := make([]*phmm.Region, len(shapes))
	for i, sh := range shapes {
		rg := &phmm.Region{}
		for range sh[0] {
			n := 40 + rng.Intn(40)
			rg.Reads = append(rg.Reads, genome.Random(rng, n))
			rg.Quals = append(rg.Quals, make([]byte, n))
		}
		for range sh[1] {
			rg.Haps = append(rg.Haps, genome.Random(rng, hapLen))
		}
		regions[i] = rg
	}
	return regions
}

// TestPhmmCut: the cut makes one piece per region; its spans, in piece
// order, visit every read of every region exactly once and in order;
// piece k holds exactly the reads whose first cell falls in
// [k·total/n, (k+1)·total/n), the last piece also any zero-cell reads
// at total; so a piece's cells are at most total/n plus its last
// read's.
func TestPhmmCut(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	// The suite's shape in miniature: 29 light regions and a straggler.
	straggler := make([][2]int, 30)
	for i := range straggler {
		straggler[i] = [2]int{3 + rng.Intn(4), 3 + rng.Intn(10)}
	}
	straggler[17] = [2]int{300, 48}
	suite := built[[]*phmm.Region](t, "phmm", Small, 42)
	for _, tc := range []struct {
		name    string
		regions []*phmm.Region
	}{
		{"suite small", suite},
		{"straggler", cutRegions(rng, 200, straggler...)},
		{"empty regions", cutRegions(rng, 150, [2]int{0, 4}, [2]int{5, 0}, [2]int{6, 3}, [2]int{0, 0}, [2]int{4, 7}, [2]int{3, 0})},
		{"more pieces than reads", cutRegions(rng, 120, [2]int{0, 2}, [2]int{2, 2}, [2]int{0, 5}, [2]int{0, 1}, [2]int{1, 3}, [2]int{0, 0}, [2]int{0, 8})},
		{"no cells", cutRegions(rng, 100, [2]int{3, 0}, [2]int{0, 0}, [2]int{2, 0})},
		{"no regions", nil},
	} {
		pieces := phmmCut(tc.regions)
		n := uint64(len(tc.regions))
		if uint64(len(pieces)) != n {
			t.Errorf("%s: %d pieces for %d regions", tc.name, len(pieces), n)
			continue
		}
		cells := func(region, read int) uint64 {
			rg := tc.regions[region]
			var c uint64
			for _, h := range rg.Haps {
				c += uint64(len(rg.Reads[read]) * len(h))
			}
			return c
		}
		var total uint64
		for i, rg := range tc.regions {
			for r := range rg.Reads {
				total += cells(i, r)
			}
		}
		// (region, read) is the next read to visit; first is its first cell.
		region, read, first := 0, 0, uint64(0)
		for k, piece := range pieces {
			var pieceCells, last uint64
			for _, s := range piece {
				for region < len(tc.regions) && read == len(tc.regions[region].Reads) {
					region, read = region+1, 0
				}
				if s.region != region || s.lo != read || s.hi <= s.lo || s.hi > len(tc.regions[region].Reads) ||
					s.haps != len(tc.regions[region].Haps) {
					t.Fatalf("%s: piece %d span %+v, want one starting at region %d read %d", tc.name, k, s, region, read)
				}
				for ; read < s.hi; read++ {
					lo, hi := uint64(k)*total/n, uint64(k+1)*total/n
					if first < lo || (first >= hi && uint64(k) != n-1) {
						t.Fatalf("%s: region %d read %d starts at cell %d, in piece %d [%d, %d)", tc.name, region, read, first, k, lo, hi)
					}
					last = cells(region, read)
					first += last
					pieceCells += last
				}
			}
			if n*(pieceCells-last) > total {
				t.Errorf("%s: piece %d holds %d cells, last read %d, over total/n = %d/%d", tc.name, k, pieceCells, last, total, n)
			}
		}
		for region < len(tc.regions) && read == len(tc.regions[region].Reads) {
			region, read = region+1, 0
		}
		if region != len(tc.regions) {
			t.Errorf("%s: the pieces end at region %d read %d of %d regions", tc.name, region, read, len(tc.regions))
		}
	}
	// The suite's straggler spreads over most pieces.
	spread := 0
	for _, piece := range phmmCut(suite) {
		if len(piece) == 1 {
			spread++
		}
	}
	if spread < len(suite)/2 {
		t.Errorf("suite small: %d of %d pieces are one span, want the straggler cut across most", spread, len(suite))
	}
}

// TestPhmmCancelStopsPieces cancels phmm's run while its first pieces
// are parked in the task loop's trip-point: the run must return the
// context's error with most pieces never dispatched.
func TestPhmmCancelStopsPieces(t *testing.T) {
	b, _ := ByName("phmm")
	b.Prepare(Small, 42)
	plan, err := faultinject.Parse("delay:*:1h", 1)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(plan)
	defer faultinject.Disarm()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const threads = 2
	done := make(chan error, 1)
	go func() {
		_, err := b.RunCtx(ctx, threads)
		done <- err
	}()
	for plan.Stats()[0].Evals == 0 {
		runtime.Gosched()
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	// Each worker reached at most the piece it was parked on and one
	// it may have pulled between the cancel and its next check.
	if evals := plan.Stats()[0].Evals; evals > 2*threads {
		t.Fatalf("%d of %d pieces reached the trip-point, want at most %d", evals, phmmTasks(Small), 2*threads)
	}
}
