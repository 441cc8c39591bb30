package phmm

import (
	"math"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/genome"
)

// fuzzReadGroup builds the fuzzers' read group: count reads (at least
// one), read l being readB rotated by l and cut short by byte l of
// ragged, its qualities qualB rotated by l, mod 94 (30 when qualB is
// empty); and hap from hapB. Reads are capped at 300 bases, the
// haplotype at 400.
func fuzzReadGroup(readB, qualB, hapB []byte, ragged uint64, count int) ([]genome.Seq, [][]byte, genome.Seq) {
	readB = readB[:min(len(readB), 300)]
	hap := make(genome.Seq, min(len(hapB), 400))
	for j := range hap {
		hap[j] = genome.Base(hapB[j] & 3)
	}
	reads := make([]genome.Seq, count)
	quals := make([][]byte, count)
	for l := range reads {
		m := len(readB) - int(ragged>>(8*l)&0xff)%(len(readB)+1)
		reads[l] = make(genome.Seq, m)
		quals[l] = make([]byte, m)
		for i := range reads[l] {
			reads[l][i] = genome.Base(readB[(i+l)%len(readB)] & 3)
			quals[l][i] = 30
			if len(qualB) > 0 {
				quals[l][i] = qualB[(i+l)%len(qualB)] % byte(len(qualToErr))
			}
		}
	}
	return reads, quals, hap
}

// checkForwardReads asserts, per lane, the same forwardReads bits in
// precision F on the dispatched tier, with the tier forced off, and
// from forwardInto on the lane's own pair at the given floor: the raw
// sum always, and all six DP rows for the lanes whose read is the
// group's longest (the rows other lanes end in ran on past their read).
func checkForwardReads[F Float](t *testing.T, reads []genome.Seq, quals [][]byte, hap genome.Seq, scale float64, floor F) {
	t.Helper()
	bits := func(v F) uint64 { return math.Float64bits(float64(v)) }
	run := func() ([8]F, [6][]F) {
		var g readGroup[F]
		var rows [6][]F
		prepareReads(reads, quals, &g)
		sums := forwardReads(&g, hap, scale, &rows) // grows the rows
		return sums, rows
	}
	tier := cpufeat.String()
	sums, rows := run()
	restore := cpufeat.ForceForTest("off")
	offSums, offRows := run()
	restore()
	for l := range sums {
		if g, w := bits(sums[l]), bits(offSums[l]); g != w {
			t.Fatalf("lane %d sum: dispatched (%s) %x, portable %x", l, tier, g, w)
		}
	}
	for k := range rows {
		for o := range rows[k] {
			if g, w := bits(rows[k][o]), bits(offRows[k][o]); g != w {
				t.Fatalf("row %d[%d]: dispatched (%s) %x, portable %x", k, o, tier, g, w)
			}
		}
	}

	maxM := 0
	for _, read := range reads {
		maxM = max(maxM, len(read))
	}
	w := laneCount[F]()
	var want [6][]F
	for l, read := range reads {
		if len(read) == 0 || len(hap) == 0 {
			if sums[l] != 0 {
				t.Fatalf("lane %d (m=%d, n=%d): sum %g, want 0", l, len(read), len(hap), float64(sums[l]))
			}
			continue
		}
		sum, _ := forwardInto(read, quals[l], hap, scale, floor, &want)
		if g, w := bits(sums[l]), bits(sum); g != w {
			t.Fatalf("lane %d (m=%d, n=%d) sum: read lanes %x, forwardInto %x", l, len(read), len(hap), g, w)
		}
		if len(read) < maxM {
			continue
		}
		for k := range want {
			for j, v := range want[k] {
				if g := rows[k][j*w+l]; bits(g) != bits(v) {
					t.Fatalf("lane %d (m=%d, n=%d): row %d[%d] = %x, forwardInto %x",
						l, len(read), len(hap), k, j, bits(g), bits(v))
				}
			}
		}
	}
}

// FuzzForwardReads: the float32 read lanes (checkForwardReads) on a
// group of 1 + count%8 reads (fuzzReadGroup). A nonzero floorGap starts
// the D row at 2^(-93 + floorGap%32) instead of 2^120/len(hap), so the
// rows straddle the flush floor from the first read position on. Seed
// corpus under testdata/fuzz: m = 1, n = 1, a ragged seven-read group,
// near-floor rows, Phred 93, and groups whose longest read is even
// (every row in a two-row sweep) and odd (the first row alone), with
// lanes ending on both rows of a pair.
func FuzzForwardReads(f *testing.F) {
	f.Fuzz(func(t *testing.T, readB, qualB, hapB []byte, ragged uint64, count, floorGap uint8) {
		reads, quals, hap := fuzzReadGroup(readB, qualB, hapB, ragged, 1+int(count)%laneCount[float32]())
		scale := initialScale32
		if floorGap > 0 {
			scale = math.Ldexp(1, -93+int(floorGap%32)) * float64(len(hap))
		}
		checkForwardReads[float32](t, reads, quals, hap, scale, flushFloor32)
	})
}

// FuzzForwardReads64: the float64 read lanes, the region path's
// float64 redo (checkForwardReads), on a group of 1 + count%4 reads
// (fuzzReadGroup) from forwardInto's float64 scale, 1e280/len(hap),
// with no floor. A nonzero lowGap starts the D row at
// 2^(-1022 + lowGap%64) instead, so the rows run through float64's
// subnormals from the first read position on: there is no floor to
// zero them, and every tier must round them alike. Seed corpus under
// testdata/fuzz: m = 1, n = 1, a ragged three-read group, Phred 0 and
// 93, a junk read whose float32 sum underflows, and subnormal rows.
func FuzzForwardReads64(f *testing.F) {
	f.Fuzz(func(t *testing.T, readB, qualB, hapB []byte, ragged uint64, count, lowGap uint8) {
		reads, quals, hap := fuzzReadGroup(readB, qualB, hapB, ragged, 1+int(count)%laneCount[float64]())
		scale := scale64
		if lowGap > 0 {
			scale = math.Ldexp(1, -1022+int(lowGap%64)) * float64(len(hap))
		}
		checkForwardReads[float64](t, reads, quals, hap, scale, 0)
	})
}
