package phmm

import (
	"math"
	"testing"

	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/lanes"
)

// FuzzForwardReads: any group of reads, base qualities and haplotype
// give, per lane, the same forwardReads bits on the dispatched tier,
// with the tier forced off, and from forwardInto on the lane's own
// pair: the raw sum always, and all six DP rows for the lanes whose
// read is the group's longest (the rows other lanes end in ran on past
// their read). The group holds 1 + count%8 reads; read l is read
// rotated by l and cut short by byte l of ragged, its qualities qual
// rotated by l, mod 94. A nonzero floorGap starts the D row at
// 2^(-93 + floorGap%32) instead of 2^120/len(hap), so the rows straddle
// the flush floor from the first read position on. Seed corpus under
// testdata/fuzz: m = 1, n = 1, a ragged seven-read group, near-floor
// rows, Phred 93.
func FuzzForwardReads(f *testing.F) {
	f.Fuzz(func(t *testing.T, readB, qualB, hapB []byte, ragged uint64, count, floorGap uint8) {
		readB = readB[:min(len(readB), 300)]
		hap := make(genome.Seq, min(len(hapB), 400))
		for j := range hap {
			hap[j] = genome.Base(hapB[j] & 3)
		}
		reads := make([]genome.Seq, 1+int(count)%lanes.Width)
		quals := make([][]byte, len(reads))
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
		scale := initialScale32
		if floorGap > 0 {
			scale = math.Ldexp(1, -93+int(floorGap%32)) * float64(len(hap))
		}
		run := func() ([lanes.Width]float32, [6][]float32) {
			s := NewScratch()
			prepareReads(reads, quals, &s.reads)
			sums := forwardReads(&s.reads, hap, scale, &s.laneRows) // grows the rows
			return sums, s.laneRows
		}
		tier := cpufeat.String()
		sums, rows := run()
		restore := cpufeat.ForceForTest("off")
		offSums, offRows := run()
		restore()
		for l := range sums {
			if g, w := math.Float32bits(sums[l]), math.Float32bits(offSums[l]); g != w {
				t.Fatalf("lane %d sum: dispatched (%s) %x, portable %x", l, tier, g, w)
			}
		}
		for k := range rows {
			for o := range rows[k] {
				if g, w := math.Float32bits(rows[k][o]), math.Float32bits(offRows[k][o]); g != w {
					t.Fatalf("row %d[%d]: dispatched (%s) %x, portable %x", k, o, tier, g, w)
				}
			}
		}

		maxM := 0
		for _, read := range reads {
			maxM = max(maxM, len(read))
		}
		var want [6][]float32
		for l, read := range reads {
			if len(read) == 0 || len(hap) == 0 {
				if sums[l] != 0 {
					t.Fatalf("lane %d (m=%d, n=%d): sum %g, want 0", l, len(read), len(hap), sums[l])
				}
				continue
			}
			sum, _ := forwardInto(read, quals[l], hap, scale, flushFloor32, &want)
			if g, w := math.Float32bits(sums[l]), math.Float32bits(sum); g != w {
				t.Fatalf("lane %d (m=%d, n=%d) sum: read lanes %x, forwardInto %x", l, len(read), len(hap), g, w)
			}
			if len(read) < maxM {
				continue
			}
			for k := range want {
				for j, w := range want[k] {
					if g := rows[k][j*lanes.Width+l]; math.Float32bits(g) != math.Float32bits(w) {
						t.Fatalf("lane %d (m=%d, n=%d): row %d[%d] = %x, forwardInto %x",
							l, len(read), len(hap), k, j, math.Float32bits(g), math.Float32bits(w))
					}
				}
			}
		}
	})
}
