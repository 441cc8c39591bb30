package chain

import (
	"slices"
	"sort"

	"repro/internal/genome"
)

// Mapper is a Minimap2-style reference mapper: a minimizer index over
// the target genome (both strands via canonical orientation handling)
// plus the chaining DP to place reads. This is the full mapping path
// the chain kernel was extracted from, provided so the suite's
// examples can map long reads without the FM index.
type Mapper struct {
	k, w   int
	maxOcc int
	ref    genome.Seq
	// index maps a minimizer hash to its reference positions; negative
	// positions encode reverse-strand minimizers as -(pos+1).
	index map[uint64][]int32
}

// NewMapper indexes the reference with (w,k)-minimizers on both
// strands. maxOcc drops repetitive minimizers at query time.
func NewMapper(ref genome.Seq, k, w, maxOcc int) *Mapper {
	m := &Mapper{k: k, w: w, maxOcc: maxOcc, ref: ref, index: make(map[uint64][]int32)}
	for _, mz := range Minimizers(ref, k, w) {
		m.index[mz.Hash] = append(m.index[mz.Hash], mz.Pos)
	}
	rc := ref.ReverseComplement()
	for _, mz := range Minimizers(rc, k, w) {
		// Position of the minimizer's first base on the forward strand.
		fwd := int32(len(ref)) - mz.Pos - int32(k)
		m.index[mz.Hash] = append(m.index[mz.Hash], -(fwd + 1))
	}
	return m
}

// Mapping is one read placement.
type Mapping struct {
	RefStart, RefEnd int
	QStart, QEnd     int
	Reverse          bool
	Score            float64
	Anchors          int
}

// Map places a read on the reference, returning mappings sorted by
// descending chain score (empty when the read has no chainable seeds).
func (m *Mapper) Map(read genome.Seq, cfg Config) []Mapping {
	var fwd, rev []Anchor
	for _, mz := range Minimizers(read, m.k, m.w) {
		hits := m.index[mz.Hash]
		if len(hits) == 0 || (m.maxOcc > 0 && len(hits) > m.maxOcc) {
			continue
		}
		for _, h := range hits {
			if h >= 0 {
				fwd = append(fwd, Anchor{
					X: h + int32(m.k) - 1,
					Y: mz.Pos + int32(m.k) - 1,
					W: int32(m.k),
				})
			} else {
				// Reverse-strand hit: anchor in reverse-read coordinates.
				pos := -h - 1
				rev = append(rev, Anchor{
					X: pos + int32(m.k) - 1,
					Y: int32(len(read)) - mz.Pos - 1,
					W: int32(m.k),
				})
			}
		}
	}
	var mappings []Mapping
	for strand, anchors := range [][]Anchor{fwd, rev} {
		if len(anchors) == 0 {
			continue
		}
		slices.SortFunc(anchors, compareXY)
		chains, _ := ChainAnchors(anchors, cfg)
		for _, c := range chains {
			x0, x1, y0, y1 := c.Span(anchors)
			mp := Mapping{
				RefStart: int(x0), RefEnd: int(x1),
				QStart: int(y0), QEnd: int(y1),
				Reverse: strand == 1,
				Score:   c.Score,
				Anchors: len(c.Anchors),
			}
			if mp.Reverse {
				// Translate query span back to forward-read coordinates.
				mp.QStart, mp.QEnd = len(read)-int(y1), len(read)-int(y0)
			}
			if mp.RefStart < 0 {
				mp.RefStart = 0
			}
			if mp.QStart < 0 {
				mp.QStart = 0
			}
			mappings = append(mappings, mp)
		}
	}
	sort.Slice(mappings, func(i, j int) bool { return mappings[i].Score > mappings[j].Score })
	return mappings
}
