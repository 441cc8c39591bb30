package poa

import (
	"repro/internal/cpufeat"
	"repro/internal/genome"
	"repro/internal/lanes"
	"repro/internal/scratch"
	"repro/internal/seq2"
)

// Lane-batched row sweep for AddSequence.
//
// The scalar DP walks one cell at a time: per cell it chases the
// node's in-edge list, looks each predecessor up through rank[], takes
// an unpredictable branch on the base compare, and stores 9 bytes
// (int32 score + move byte + int32 pred). The lane path restructures
// the same recurrence around three ideas, all borrowed from spoa's
// SIMD engine:
//
//   - The graph is streamed through the CSR snapshot: predecessor DP
//     rows come from one flat slice per node, already resolved to row
//     indices, so the inner loop is loads off a contiguous array.
//   - Sixteen columns advance per step as an int16 lane vector (the
//     wide tier; lanes.I16x16, one AVX2 ymm). The match/mismatch
//     choice comes from a dense bit mask over the 2-bit packed query
//     (seq2.MatchMaskBits): one 16-bit read yields the group's match
//     bits, one blend turns them into substitution scores — no
//     per-cell base compare, no branch.
//   - Only scores are stored (2 bytes per cell). Moves are recovered
//     during backtracking by re-checking each visited cell's
//     candidates in the scalar enumeration order — the forward pass's
//     running strict-greater maximum keeps the FIRST candidate that
//     reaches the final value, so "first candidate equal to the cell
//     score" recovers exactly the scalar moveT/movePred decisions.
//
// The per-row body lives in row_wide.go (portable) and row_amd64.s
// (AVX2), dispatched once per alignment on cpufeat.AVX2() — so
// GBENCH_SIMD=off pins the portable twin.
//
// The result is bit-identical to the scalar path: same scores, same
// backtrack tie-breaks, same fused graph, same CellUpdates. The
// scalar path remains in poa.go as the differential reference and as
// the fallback when a window fails the int16 range proof.

// virtualStartRow is the predecessor list of a source node: the DP's
// virtual start row 0. Sharing one slice keeps the candidate loops
// uniform — sources are just rows whose single predecessor is row 0.
var virtualStartRow = []int32{0}

func absScore(x int32) int64 {
	if x < 0 {
		return int64(-x)
	}
	return int64(x)
}

// laneEligible reports whether the int16 sweep represents every
// intermediate DP value exactly. |score| at DP cell (ri, j) is
// bounded by maxAbs*(ri+j) <= maxAbs*(V+n+15) including the padded
// columns, and each candidate adds one more maxAbs before comparing,
// so maxAbs*(V+n+16) must fit int16. Below the bound the saturating
// int16 adds never clamp and equal the scalar int32 arithmetic bit
// for bit; 32000 leaves slack rather than shaving the boundary. The
// wide kernels' prefix-max gap scan additionally requires gap <= 0 so
// its -32768 sentinel fill is a fixed point of the saturating scan
// adds (row_wide.go); a gap bonus is a degenerate configuration, and
// it takes the scalar path like any other ineligible window (huge
// graphs, extreme scores).
func laneEligible(p Params, V, n int) bool {
	maxAbs := absScore(p.Match)
	if m := absScore(p.Mismatch); m > maxAbs {
		maxAbs = m
	}
	if m := absScore(p.Gap); m > maxAbs {
		maxAbs = m
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	return p.Gap <= 0 && maxAbs*int64(V+n+16) <= 32000
}

// addSequenceLanes is the lane-batched AddSequence body. order is the
// current topological order; the caller has verified eligibility.
func (g *Graph) addSequenceLanes(seq genome.Seq, p Params, order []int32) {
	n := len(seq)
	V := len(order)
	c := g.csrSnapshot(order)
	// Row width: column 0 plus n rounded up to whole 16-column groups
	// (lanes.WideWidth). Padding columns compute garbage that never
	// feeds a real column (column j reads only columns j-1 and j, and
	// padding is strictly trailing), and their values stay inside the
	// int16 range proof.
	wpad := 1 + (n+lanes.WideWidth-1)/lanes.WideWidth*lanes.WideWidth
	ngroups := (wpad - 1) / lanes.WideWidth
	g.score16 = scratch.Grow(g.score16, (V+1)*wpad)
	score := g.score16
	// Pack the query and build the four per-base dense match masks,
	// sized so the last group's 16-bit read stays in bounds; words
	// past the query are zeroed (no base matches a padding column).
	g.packBuf = seq2.PackInto(g.packBuf, seq).WordsSlice()
	packed := seq2.FromWords(g.packBuf, n)
	mw := (wpad-2)/64 + 1
	for b := 0; b < 4; b++ {
		g.maskBits[b] = scratch.Grow(g.maskBits[b], mw)
		mask := g.maskBits[b]
		seq2.MatchMaskBits(mask, packed, genome.Base(b))
		for w := seq2.BitsWords(n); w < mw; w++ {
			mask[w] = 0
		}
	}
	match16, mism16, gap16 := int16(p.Match), int16(p.Mismatch), int16(p.Gap)
	// One dispatch decision per alignment, not per row: asm needs both
	// a compiled kernel and a live AVX2 tier (GBENCH_SIMD can lower
	// the ceiling to the portable twin at run time).
	useAsm := poaHaveWideAsm && cpufeat.AVX2()
	// Row 0: virtual start.
	score[0] = 0
	for j := 1; j < wpad; j++ {
		score[j] = int16(j) * gap16
	}
	for r := 0; r < V; r++ {
		row := (r + 1) * wpad
		plist := c.in[c.inOff[r]:c.inOff[r+1]]
		if len(plist) == 0 {
			plist = virtualStartRow
		}
		// Column 0 consumes graph nodes only; it stays scalar.
		best0 := score[int(plist[0])*wpad] + gap16
		for _, pr := range plist[1:] {
			if s := score[int(pr)*wpad] + gap16; s > best0 {
				best0 = s
			}
		}
		score[row] = best0
		// Resolve predecessor rows to element offsets once; the row
		// kernels then touch nothing but flat arrays.
		g.predOff = scratch.Grow(g.predOff, len(plist))
		predOff := g.predOff[:len(plist)]
		for k, pr := range plist {
			predOff[k] = int64(pr) * int64(wpad)
		}
		mask := g.maskBits[c.bases[r]&3]
		if useAsm {
			poaRowWide(score, predOff, mask, row, ngroups, match16, mism16, gap16)
		} else {
			poaRowPortable(score, predOff, mask, row, ngroups, match16, mism16, gap16)
		}
	}
	g.CellUpdates += uint64(V) * uint64(n)
	// End-cell selection, identical to the scalar scan: global
	// alignment must end at a graph sink.
	endRow := int32(-1)
	var endScore int16
	for r := 0; r < V; r++ {
		if c.outDeg[r] != 0 {
			continue
		}
		s := score[(r+1)*wpad+n]
		if endRow < 0 || s > endScore {
			endRow = int32(r + 1)
			endScore = s
		}
	}
	if endRow < 0 {
		endRow = int32(V)
	}
	g.laneBacktrack(seq, order, c, wpad, endRow, p)
	g.fusePath(seq)
}

// laneBacktrack rebuilds the alignment path from the score-only
// sweep: each visited cell re-checks its candidates in the scalar
// enumeration order (diag then up per in-edge, left last) and follows
// the first one whose value equals the cell's score. Because the
// scalar forward pass keeps the first candidate that attains the
// final running maximum, this recovers exactly the scalar path's
// moveT/movePred decisions without the forward pass storing them.
// Cost is O(preds) per visited cell over at most V+n cells — noise
// next to the O(E*n) sweep.
func (g *Graph) laneBacktrack(seq genome.Seq, order []int32, c *csr, wpad int, endRow int32, p Params) {
	score := g.score16
	match16, mism16, gap16 := int16(p.Match), int16(p.Mismatch), int16(p.Gap)
	path := g.path[:0]
	r, j := int(endRow), len(seq)
	for {
		if r == 0 {
			// Row 0 is moveLeft back to the moveStart origin.
			for j > 0 {
				path = append(path, aligned{-1, int32(j - 1)})
				j--
			}
			break
		}
		plist := c.in[c.inOff[r-1]:c.inOff[r]]
		if len(plist) == 0 {
			plist = virtualStartRow
		}
		if j == 0 {
			// Column 0 is always moveUp; recover the predecessor.
			s := score[r*wpad]
			path = append(path, aligned{order[r-1], -1})
			next := int(plist[0])
			for _, pr := range plist {
				if score[int(pr)*wpad]+gap16 == s {
					next = int(pr)
					break
				}
			}
			r = next
			continue
		}
		s := score[r*wpad+j]
		sub := mism16
		if g.maskBits[c.bases[r-1]&3][(j-1)>>6]>>(uint(j-1)&63)&1 != 0 {
			sub = match16
		}
		moved := false
		for _, pr := range plist {
			prow := int(pr) * wpad
			if score[prow+j-1]+sub == s {
				path = append(path, aligned{order[r-1], int32(j - 1)})
				r = int(pr)
				j--
				moved = true
				break
			}
			if score[prow+j]+gap16 == s {
				path = append(path, aligned{order[r-1], -1})
				r = int(pr)
				moved = true
				break
			}
		}
		if !moved {
			// No vertical candidate reaches the score, so the scalar
			// winner was the strictly-greater left move.
			path = append(path, aligned{-1, int32(j - 1)})
			j--
		}
	}
	g.path = path
}
