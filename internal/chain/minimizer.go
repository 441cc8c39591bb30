// Package chain implements the chaining kernel from Minimap2: grouping
// co-linear seed matches (anchors) between a pair of reads into
// overlapping regions with the score(i) = max_j{score(j) + alpha(j,i) -
// beta(j,i), w_i} recurrence, each anchor compared against the previous
// N anchors. Anchor generation uses (w,k)-minimizer sketching, the same
// seeding scheme Minimap2 uses.
package chain

import (
	"cmp"
	"slices"

	"repro/internal/genome"
)

// Minimizer is one sampled k-mer: its hashed value and read position.
type Minimizer struct {
	Hash uint64
	Pos  int32
}

// hash64 is the invertible integer hash Minimap2 applies to k-mer codes
// so that minimizer sampling is not biased toward poly-A.
func hash64(key, mask uint64) uint64 {
	key = (^key + (key << 21)) & mask
	key = key ^ key>>24
	key = (key + (key << 3) + (key << 8)) & mask
	key = key ^ key>>14
	key = (key + (key << 2) + (key << 4)) & mask
	key = key ^ key>>28
	key = (key + (key << 31)) & mask
	return key
}

// Minimizers extracts the (w,k)-minimizers of s: for every window of w
// consecutive k-mers, the k-mer with the smallest hash is sampled, the
// leftmost on a tie. Consecutive duplicate selections are collapsed.
//
// The window keeps its minimum as it slides: an entering k-mer replaces
// the minimum only when strictly smaller, so ties stay leftmost, and
// the w hashes in the ring are rescanned only when the minimum leaves
// the window. Each k-mer is hashed once and the scan is O(len(s)) in
// expectation; the selections are exactly a full scan of every window
// (the reference in minimizer_test.go).
func Minimizers(s genome.Seq, k, w int) []Minimizer {
	if len(s) < k+w-1 || k <= 0 || k > 31 || w <= 0 {
		return nil
	}
	mask := uint64(1)<<(2*uint(k)) - 1
	nk := len(s) - k + 1
	ring := make([]uint64, w) // the window's hashes, k-mer i at i%w
	// A random sequence samples 2/(w+1) of its k-mers, give or take a
	// few percent; an eighth more keeps out from growing.
	expect := 2 * nk / (w + 1)
	out := make([]Minimizer, 0, expect+expect/8+16)
	slot := 0 // the ring slot k-mer i fills, i%w
	minIdx, minHash := -1, uint64(0)
	// A rolling k-mer code, as genome.EachKmer keeps it, without a
	// call per k-mer.
	code := genome.KmerCode(s, 0, k-1)
	for i := 0; i < nk; i++ {
		code = (code<<2 | uint64(s[i+k-1]&3)) & mask
		h := hash64(code, mask)
		ring[slot] = h
		if slot++; slot == w {
			slot = 0
		}
		// slot is now the window's first k-mer's.
		start := i - w + 1
		switch {
		case start < 0:
			continue // the first window is not full yet
		case minIdx < start:
			// The minimum left the window (or there is none yet):
			// rescan it, leftmost first.
			minIdx, minHash = start, ring[slot]
			for j, p := start+1, slot+1; j <= i; j, p = j+1, p+1 {
				if p == w {
					p = 0
				}
				if ring[p] < minHash {
					minIdx, minHash = j, ring[p]
				}
			}
		case h < minHash:
			minIdx, minHash = i, h
		default:
			continue // the minimum stands and is already sampled
		}
		// Every change of the minimum is a new selection: it only
		// moves right.
		out = append(out, Minimizer{Hash: minHash, Pos: int32(minIdx)})
	}
	return out
}

// Anchor is a seed match between a query and a target read: the
// inclusive END positions of a shared minimizer on each sequence plus
// the seed length (Minimap2's anchor convention).
type Anchor struct {
	X int32 // target end position (inclusive)
	Y int32 // query end position (inclusive)
	W int32 // seed length
}

// compareXY orders anchors by target then query position. No two
// anchors between one pair of sequences share both — a query
// minimizer's position is unique and so is each target position it
// hits — so the order is total and every sort returns the same slice.
func compareXY(a, b Anchor) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	return cmp.Compare(a.Y, b.Y)
}

// SharedAnchors builds the anchors between two reads from their shared
// minimizers, sorted by target then query position — the input format
// of the chaining DP. Minimizers occurring more than maxOcc times in
// the target are skipped as repeats.
func SharedAnchors(query, target genome.Seq, k, w, maxOcc int) []Anchor {
	qm := Minimizers(query, k, w)
	tm := Minimizers(target, k, w)
	// The target minimizers of one hash are a chain through next from
	// first[hash], ending at -1: two allocations for the whole index,
	// where a slice of positions per hash costs one per minimizer.
	first := make(map[uint64]int32, len(tm))
	next := make([]int32, len(tm))
	for i := range tm {
		next[i] = -1
		if j, ok := first[tm[i].Hash]; ok {
			next[i] = j
		}
		first[tm[i].Hash] = int32(i)
	}
	var anchors []Anchor
	for _, m := range qm {
		head, ok := first[m.Hash]
		if !ok {
			continue
		}
		if maxOcc > 0 {
			n := 0
			for j := head; j >= 0 && n <= maxOcc; j = next[j] {
				n++
			}
			if n > maxOcc {
				continue
			}
		}
		for j := head; j >= 0; j = next[j] {
			anchors = append(anchors, Anchor{
				X: tm[j].Pos + int32(k) - 1,
				Y: m.Pos + int32(k) - 1,
				W: int32(k),
			})
		}
	}
	slices.SortFunc(anchors, compareXY)
	return anchors
}
