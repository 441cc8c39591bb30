// Package abea implements the Adaptive Banded Event Alignment kernel
// from Nanopolish/f5c: aligning a nanopore event sequence to the
// k-mers of a reference sequence with a fixed-width band that moves
// down (consuming events) or right (consuming k-mers) after every
// anti-diagonal, following the Suzuki-Kasahara adaptive banding rule.
// Scoring uses 32-bit floating-point log-likelihoods from the pore
// model. A full-matrix reference implementation backs the tests, and a
// SIMT lane program reproduces the kernel's GPU behaviour for the
// paper's Tables IV and V.
package abea

import (
	"math"

	"repro/internal/genome"
	"repro/internal/scratch"
	"repro/internal/signalsim"
)

// Transition log-probabilities: events per k-mer average ~1.4 (the
// paper's 2x over-segmentation bound), with rare skips.
var (
	lpStay = float32(math.Log(0.4))  // event advances, k-mer repeats
	lpStep = float32(math.Log(0.55)) // event and k-mer advance together
	lpSkip = float32(math.Log(0.05)) // k-mer advances without an event
)

const negInf = float32(-1e30)

// Config parameterizes the banded alignment.
type Config struct {
	BandWidth int // cells per band (nanopolish uses 100)
}

// DefaultConfig mirrors the f5c default band width.
func DefaultConfig() Config { return Config{BandWidth: 100} }

// Result reports one event-to-sequence alignment.
type Result struct {
	Score       float32
	CellUpdates uint64 // band cells computed
	OutOfBand   bool   // the terminal cell fell outside every band
}

// FullAlign is the exhaustive O(events x kmers) reference: the score of
// the best alignment of all events to all k-mers.
func FullAlign(model *signalsim.PoreModel, seq genome.Seq, events []signalsim.Event) float32 {
	nk := len(seq) - signalsim.K + 1
	ne := len(events)
	if nk <= 0 || ne == 0 {
		return negInf
	}
	prev := make([]float32, nk) // M[e-1][*]
	cur := make([]float32, nk)
	// Row e = 0: predecessors live on the virtual e = -1 row, whose
	// value at k-mer j is the skip-only prefix (j+1)*lpSkip (and 0 at
	// the origin j = -1).
	for k := 0; k < nk; k++ {
		emit := model.LogProbMatch(events[0].Mean, seq, k)
		diag := lpSkip*float32(k) + lpStep // origin + k skips + step
		stay := lpSkip*float32(k+1) + lpStay
		best := diag
		if stay > best {
			best = stay
		}
		v := emit + best
		if k > 0 {
			// Skips consume a k-mer without emitting an event.
			if s := cur[k-1] + lpSkip; s > v {
				v = s
			}
		}
		cur[k] = v
	}
	prev, cur = cur, prev
	for e := 1; e < ne; e++ {
		for k := 0; k < nk; k++ {
			emit := model.LogProbMatch(events[e].Mean, seq, k)
			best := prev[k] + lpStay
			if k > 0 {
				if s := prev[k-1] + lpStep; s > best {
					best = s
				}
			}
			v := emit + best
			if k > 0 {
				if s := cur[k-1] + lpSkip; s > v {
					v = s
				}
			}
			cur[k] = v
		}
		prev, cur = cur, prev
	}
	return prev[nk-1]
}

// alignInto runs the adaptive banded event alignment one cell at a
// time into a's reusable band buffers (nil for a temporary arena; each
// call Resets a). The band spans W cells along each anti-diagonal;
// after computing a band, the band moves right when the running
// maximum sits in the lower (k-poor) half and down otherwise, so it
// tracks the alignment path. It is the scalar definition the lane
// sweep (AlignLanesInto) is held to bit for bit; traj, when non-nil,
// records the band path.
func alignInto(model *signalsim.PoreModel, seq genome.Seq, events []signalsim.Event, cfg Config, a *scratch.Arena, traj *trajectory) Result {
	if a == nil {
		a = scratch.New()
	}
	a.Reset()
	W := cfg.BandWidth
	if W < 4 {
		W = 4
	}
	nk := len(seq) - signalsim.K + 1
	ne := len(events)
	var res Result
	if nk <= 0 || ne == 0 {
		res.Score = negInf
		return res
	}
	nBands := ne + nk + 1
	prev := a.Float32s(W)  // band i-1
	prev2 := a.Float32s(W) // band i-2
	cur := a.Float32s(W)
	for o := 0; o < W; o++ {
		prev[o], prev2[o] = negInf, negInf
	}
	// Band geometry: cell o of a band at lower-left (e0,k0) is
	// (e0-o, k0+o). Band 0 holds the origin (-1,-1) at offset W/2.
	// The lower-left positions are split into parallel e/k arrays so
	// they come out of the arena's int pool.
	lle := a.Ints(nBands)
	llk := a.Ints(nBands)
	lle[0], llk[0] = -1+W/2, -1-W/2
	prev2[W/2] = 0 // origin in band 0 (treated as band i-2 for band 2)

	// Band 1: moved down from band 0 by convention (origin at W/2 sees
	// its successors).
	lle[1], llk[1] = lle[0]+1, llk[0]

	// Scores for band 1 computed in the main loop; seed prev with band
	// 0 (only origin valid) and compute from band 1 on.
	copy(cur, prev2)
	prev, prev2 = cur, prev
	// After the swap: prev = band 0 scores, prev2 = all -inf (band -1).
	// Every cell of the new cur band is written before it is read, so
	// the arena buffer needs no clearing.
	cur = a.Float32s(W)

	bestFinal := negInf
	foundFinal := false
	maxOffsetPrev := W / 2

	for i := 1; i < nBands; i++ {
		// Adaptive movement (bands ≥ 2 move based on band i-1's max):
		// a maximum at high offsets (few events, many k-mers consumed)
		// means the path sits above the band centre, so advance the
		// k-mer axis (move right); a maximum at low offsets means the
		// path is event-rich, so advance the event axis (move down).
		if i >= 2 {
			if maxOffsetPrev >= W/2 {
				lle[i], llk[i] = lle[i-1], llk[i-1]+1
			} else {
				lle[i], llk[i] = lle[i-1]+1, llk[i-1]
			}
		}
		rowMax := negInf
		rowArg := 0
		for o := 0; o < W; o++ {
			e := lle[i] - o
			k := llk[i] + o
			if e < -1 || k < -1 || e >= ne || k >= nk || (e == -1 && k == -1) {
				cur[o] = negInf
				continue
			}
			if e == -1 {
				// Skip-only prefix row.
				cur[o] = lpSkip * float32(k+1)
				if cur[o] > rowMax {
					rowMax = cur[o]
					rowArg = o
				}
				continue
			}
			if k == -1 {
				cur[o] = negInf
				continue
			}
			res.CellUpdates++
			// Every band holds one anti-diagonal e+k = i-2, so the up
			// (e-1,k) and left (e,k-1) dependencies are in band i-1 and
			// the diagonal (e-1,k-1) is in band i-2; only the offsets
			// differ by band placement.
			var up, left, diag float32 = negInf, negInf, negInf
			if o2 := lle[i-1] - (e - 1); o2 >= 0 && o2 < W {
				up = prev[o2]
			}
			if o2 := lle[i-1] - e; o2 >= 0 && o2 < W {
				left = prev[o2]
			}
			if i >= 2 {
				if o3 := lle[i-2] - (e - 1); o3 >= 0 && o3 < W {
					diag = prev2[o3]
				}
			}
			emit := model.LogProbMatch(events[e].Mean, seq, k)
			stay := up + lpStay + emit
			step := diag + lpStep + emit
			skip := left + lpSkip // skips do not emit
			v := stay
			if step > v {
				v = step
			}
			if skip > v {
				v = skip
			}
			cur[o] = v
			if v > rowMax {
				rowMax = v
				rowArg = o
			}
			if e == ne-1 && k == nk-1 {
				foundFinal = true
				if v > bestFinal {
					bestFinal = v
				}
			}
		}
		maxOffsetPrev = rowArg
		traj.observe(rowArg)
		prev2, prev, cur = prev, cur, prev2
	}
	res.Score = bestFinal
	res.OutOfBand = !foundFinal
	return res
}
