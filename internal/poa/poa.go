// Package poa implements the partial-order alignment kernel from Racon
// (the spoa library): window sequences are aligned one by one against a
// partial-order graph with a dynamic-programming pass whose complexity
// is O((2*np+1) * n * |V|) — every graph node row consults all its
// in-edges — then fused into the graph, and the window consensus is
// extracted with the heaviest-bundle algorithm.
package poa

import (
	"repro/internal/genome"
	"repro/internal/scratch"
)

// Params are alignment scores (global alignment with linear gaps, the
// configuration Racon uses for window consensus).
type Params struct {
	Match    int32
	Mismatch int32 // negative
	Gap      int32 // negative
}

// DefaultParams mirrors Racon's defaults (match 3, mismatch -5, gap -4).
func DefaultParams() Params {
	return Params{Match: 3, Mismatch: -5, Gap: -4}
}

// edge is a weighted directed edge.
type edge struct {
	to     int32
	weight int32
}

// node is one graph vertex: a base supported by reads.
type node struct {
	base      genome.Base
	out       []edge
	in        []edge // reversed edges, weights mirrored
	alignedTo []int32
}

// aligned is one backtracked (nodeID, seqPos) pair.
type aligned struct {
	node int32 // -1 when the base is an insertion
	pos  int32 // -1 when the node is a deletion
}

// Graph is a partial-order alignment graph.
type Graph struct {
	nodes []node
	topo  []int32 // topological order, maintained after each AddSequence
	dirty bool

	// CellUpdates counts DP cells computed across all alignments, the
	// kernel's data-parallel unit in the paper's Table III.
	CellUpdates uint64

	// Grow-only working storage reused across AddSequence/Consensus
	// calls (and, via Reset, across windows), so the steady-state DP
	// never reallocates its rows.
	indeg      []int32
	queue      []int32
	rank       []int32
	score      []int32
	moveT      []uint8
	movePred   []int32
	path       []aligned
	consScores []int64
	consPred   []int32
	consRev    genome.Seq

	// Lane-path state (lanes.go): the int16 score rows, the 2-bit
	// packed query, per-base dense match masks, and the CSR graph
	// snapshot the row sweep streams instead of the node/edge lists.
	score16  []int16
	packBuf  []uint64
	maskBits [4][]uint64
	predOff  []int64
	csr      csr
	csrOK    bool

	// forceScalar pins AddSequence to the scalar int32 reference path
	// (set via ConsensusScalarInto, and by differential tests).
	forceScalar bool
}

// New creates an empty graph.
func New() *Graph { return &Graph{} }

// Reset clears the graph for reuse on a new window, retaining node,
// edge, and DP scratch storage. A worker that processes many windows
// with one Reset graph reaches a steady state where alignment costs no
// heap allocations beyond the returned consensus.
func (g *Graph) Reset() {
	g.nodes = g.nodes[:0]
	g.dirty = true
	g.csrOK = false
	g.CellUpdates = 0
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for i := range g.nodes {
		n += len(g.nodes[i].out)
	}
	return n
}

func (g *Graph) addNode(b genome.Base) int32 {
	if len(g.nodes) < cap(g.nodes) {
		// Re-extend into storage kept by Reset, truncating the stale
		// entry's edge lists in place so their capacity carries over.
		g.nodes = g.nodes[:len(g.nodes)+1]
		nd := &g.nodes[len(g.nodes)-1]
		nd.base = b
		nd.out = nd.out[:0]
		nd.in = nd.in[:0]
		nd.alignedTo = nd.alignedTo[:0]
	} else {
		g.nodes = append(g.nodes, node{base: b})
	}
	g.dirty = true
	g.csrOK = false
	return int32(len(g.nodes) - 1)
}

func (g *Graph) addEdge(from, to int32, w int32) {
	// Every branch invalidates the CSR snapshot: a weight bump on an
	// existing edge leaves the topology (and g.dirty) alone, but the
	// snapshot caches weights for the consensus pass.
	g.csrOK = false
	for i := range g.nodes[from].out {
		if g.nodes[from].out[i].to == to {
			g.nodes[from].out[i].weight += w
			for j := range g.nodes[to].in {
				if g.nodes[to].in[j].to == from {
					g.nodes[to].in[j].weight += w
					return
				}
			}
			return
		}
	}
	g.nodes[from].out = append(g.nodes[from].out, edge{to, w})
	g.nodes[to].in = append(g.nodes[to].in, edge{from, w})
	g.dirty = true
}

// topoOrder returns (computing if needed) a topological order via
// Kahn's algorithm. A well-formed POA graph is a DAG by construction,
// so a cycle means the graph was corrupted by a kernel bug: it panics.
func (g *Graph) topoOrder() []int32 {
	if !g.dirty && g.topo != nil {
		return g.topo
	}
	n := len(g.nodes)
	g.indeg = scratch.Grow(g.indeg, n)
	indeg := g.indeg
	clear(indeg)
	for i := range g.nodes {
		for _, e := range g.nodes[i].out {
			indeg[e.to]++
		}
	}
	order := g.topo[:0]
	queue := g.queue[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		order = append(order, v)
		for _, e := range g.nodes[v].out {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				queue = append(queue, e.to)
			}
		}
	}
	g.queue = queue
	if len(order) != n {
		panic("poa: graph has a cycle")
	}
	g.topo = order
	g.dirty = false
	return order
}

// move codes for backtracking.
const (
	moveDiag  = 1 // consume graph node + sequence base
	moveUp    = 2 // consume graph node (deletion in sequence)
	moveLeft  = 3 // consume sequence base (insertion)
	moveStart = 4
)

// AddSequence aligns the whole of seq against a full source-to-sink
// path of the graph (global alignment, Racon's window-consensus
// setting) and fuses it in, updating edge weights. The first sequence
// simply seeds a linear backbone.
func (g *Graph) AddSequence(seq genome.Seq, p Params) {
	if len(seq) == 0 {
		return
	}
	if len(g.nodes) == 0 {
		prev := int32(-1)
		for _, b := range seq {
			id := g.addNode(b)
			if prev >= 0 {
				g.addEdge(prev, id, 1)
			}
			prev = id
		}
		return
	}
	order := g.topoOrder()
	n := len(seq)
	V := len(order)
	// laneEligible is the int16 range proof: every eligible window
	// takes the lane path.
	if !g.forceScalar && laneEligible(p, V, n) {
		g.addSequenceLanes(seq, p, order)
		return
	}
	// rank[v] is the DP row of node v. All DP buffers are grow-only
	// graph scratch; every cell the recurrence reads is written first
	// (plus the explicit score[0] seed), so stale contents are inert.
	g.rank = scratch.Grow(g.rank, len(g.nodes))
	rank := g.rank
	for r, v := range order {
		rank[v] = int32(r)
	}
	width := n + 1
	g.score = scratch.Grow(g.score, (V+1)*width)
	g.moveT = scratch.Grow(g.moveT, (V+1)*width)
	g.movePred = scratch.Grow(g.movePred, (V+1)*width)
	score, moveT, movePred := g.score, g.moveT, g.movePred
	// Row 0 is the virtual start (no graph node consumed).
	score[0] = 0
	for j := 1; j <= n; j++ {
		score[j] = int32(j) * p.Gap
		moveT[j] = moveLeft
	}
	moveT[0] = moveStart
	// Node rows in topological order.
	for r, v := range order {
		row := (r + 1) * width
		nd := &g.nodes[v]
		// Column 0: consume graph nodes only.
		best0 := int32(p.Gap) // from virtual start
		bestP0 := int32(0)    // row index of predecessor (0 = start)
		if len(nd.in) > 0 {
			first := true
			for _, e := range nd.in {
				pr := int32(rank[e.to]) + 1
				s := score[pr*int32(width)] + p.Gap
				if first || s > best0 {
					best0 = s
					bestP0 = pr
					first = false
				}
			}
		}
		score[row] = best0
		moveT[row] = moveUp
		movePred[row] = bestP0
		for j := 1; j <= n; j++ {
			g.CellUpdates++
			sub := p.Mismatch
			if nd.base == seq[j-1] {
				sub = p.Match
			}
			var best int32
			var bestMove uint8
			var bestPred int32
			if len(nd.in) == 0 {
				// Predecessor is the virtual start row.
				best = score[j-1] + sub
				bestMove = moveDiag
				bestPred = 0
				if s := score[j] + p.Gap; s > best {
					best = s
					bestMove = moveUp
					bestPred = 0
				}
			} else {
				first := true
				for _, e := range nd.in {
					pr := (int32(rank[e.to]) + 1) * int32(width)
					if s := score[pr+int32(j-1)] + sub; first || s > best {
						best = s
						bestMove = moveDiag
						bestPred = (int32(rank[e.to]) + 1)
						first = false
					}
					if s := score[pr+int32(j)] + p.Gap; s > best {
						best = s
						bestMove = moveUp
						bestPred = (int32(rank[e.to]) + 1)
					}
				}
			}
			if s := score[row+j-1] + p.Gap; s > best {
				best = s
				bestMove = moveLeft
				bestPred = int32(r + 1)
			}
			score[row+j] = best
			moveT[row+j] = bestMove
			movePred[row+j] = bestPred
		}
	}
	// Global alignment ends having consumed the whole sequence at some
	// graph sink (node with no out-edges). Pick the best such row.
	endRow := int32(-1)
	var endScore int32
	for r, v := range order {
		if len(g.nodes[v].out) != 0 {
			continue
		}
		s := score[(r+1)*width+n]
		if endRow < 0 || s > endScore {
			endRow = int32(r + 1)
			endScore = s
		}
	}
	if endRow < 0 {
		endRow = int32(V)
	}
	g.backtrackMoves(order, width, endRow, n)
	g.fusePath(seq)
}

// backtrackMoves walks the stored move/pred tables from endRow and
// collects the (nodeID, seqPos) alignment pairs, end to start, into
// g.path.
func (g *Graph) backtrackMoves(order []int32, width int, endRow int32, n int) {
	moveT, movePred := g.moveT, g.movePred
	path := g.path[:0]
	r, j := endRow, n
	for {
		cell := r*int32(width) + int32(j)
		switch moveT[cell] {
		case moveDiag:
			path = append(path, aligned{order[r-1], int32(j - 1)})
			r = movePred[cell]
			j--
		case moveUp:
			path = append(path, aligned{order[r-1], -1})
			r = movePred[cell]
		case moveLeft:
			path = append(path, aligned{-1, int32(j - 1)})
			j--
		default:
			g.path = path
			return
		}
	}
}

// fusePath fuses the alignment pairs in g.path (stored end to start)
// into the graph, adding nodes for insertions and mismatches and
// bumping edge weights along the walked path.
func (g *Graph) fusePath(seq genome.Seq) {
	path := g.path
	prevNode := int32(-1)
	for i := len(path) - 1; i >= 0; i-- {
		a := path[i]
		if a.pos < 0 {
			continue // deletion: sequence skips this node
		}
		b := seq[a.pos]
		var cur int32
		if a.node >= 0 && g.nodes[a.node].base == b {
			cur = a.node
		} else if a.node >= 0 {
			// Mismatch: reuse an aligned sibling with this base, or
			// create one.
			cur = -1
			for _, alt := range g.nodes[a.node].alignedTo {
				if g.nodes[alt].base == b {
					cur = alt
					break
				}
			}
			if cur < 0 {
				cur = g.addNode(b)
				// Link the new node into the aligned group.
				group := append([]int32{a.node}, g.nodes[a.node].alignedTo...)
				for _, m := range group {
					g.nodes[m].alignedTo = append(g.nodes[m].alignedTo, cur)
					g.nodes[cur].alignedTo = append(g.nodes[cur].alignedTo, m)
				}
			}
		} else {
			cur = g.addNode(b) // insertion
		}
		if prevNode >= 0 {
			g.addEdge(prevNode, cur, 1)
		}
		prevNode = cur
	}
}

// Consensus extracts the heaviest-bundle path: per node, the best
// in-edge by weight (ties by predecessor score) defines a predecessor;
// the highest-scoring end node is traced back. The pass streams the
// CSR snapshot in rank order — flat offsets, weights, and bases with
// no node/edge pointer chasing — and is output-identical to the
// node-list form because the snapshot preserves both topological
// iteration order and per-node in-edge order.
func (g *Graph) Consensus() genome.Seq {
	if len(g.nodes) == 0 {
		return nil
	}
	order := g.topoOrder()
	c := g.csrSnapshot(order)
	V := len(order)
	g.consScores = scratch.Grow(g.consScores, V)
	g.consPred = scratch.Grow(g.consPred, V)
	scores, pred := g.consScores, g.consPred
	clear(scores)
	for i := range pred {
		pred[i] = -1
	}
	for r := 0; r < V; r++ {
		for k := c.inOff[r]; k < c.inOff[r+1]; k++ {
			pr := c.in[k] - 1 // in[] holds DP rows (rank+1)
			s := scores[pr] + int64(c.inW[k])
			if pred[r] < 0 || s > scores[r] {
				scores[r] = s
				pred[r] = pr
			}
		}
	}
	best := int32(0)
	for r := int32(1); r < int32(V); r++ {
		if scores[r] > scores[best] {
			best = r
		}
	}
	rev := g.consRev[:0]
	for at := best; at >= 0; at = pred[at] {
		rev = append(rev, genome.Base(c.bases[at]))
	}
	g.consRev = rev
	// The consensus escapes to the caller; it is the one allocation a
	// pooled window evaluation keeps.
	out := make(genome.Seq, len(rev))
	for i, b := range rev {
		out[len(rev)-1-i] = b
	}
	return out
}

// Window is one consensus task: the read chunks covering one target
// window, processed on a single thread as in Racon.
type Window struct {
	Sequences []genome.Seq
}

// ConsensusInto builds the POA for a window in g and returns its
// consensus plus the DP cells computed. g's node, edge, and DP storage
// is Reset and reused, so a worker looping over windows with one graph
// stops allocating once its buffers have grown to the largest window
// seen. The returned consensus is freshly allocated and
// safe to retain.
func ConsensusInto(w *Window, p Params, g *Graph) (genome.Seq, uint64) {
	g.Reset()
	for _, s := range w.Sequences {
		g.AddSequence(s, p)
	}
	return g.Consensus(), g.CellUpdates
}

// ConsensusScalarInto is ConsensusInto pinned to the scalar int32
// reference DP: the lane path is the optimization under test, so the
// benchmark pair and the differential suite need the unoptimized side
// on demand regardless of window eligibility.
func ConsensusScalarInto(w *Window, p Params, g *Graph) (genome.Seq, uint64) {
	g.forceScalar = true
	defer func() { g.forceScalar = false }()
	return ConsensusInto(w, p, g)
}
