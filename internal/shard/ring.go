package shard

import (
	"sort"

	"repro/internal/digest"
)

// Consistent-hash partitioning of a dense task range [0, n) into
// shards. Each shard owns several virtual points on a 64-bit ring and
// a task lands on the first point clockwise of its own hash. The
// assignment is a pure function of (job, n, nshards) — every process
// that knows the job spec derives the identical partition, which is
// what lets the coordinator hand a worker nothing but shard IDs during
// recovery and still guarantee bit-identical reassembly.

// vnodesPerShard smooths the partition; 16 points per shard keeps the
// largest shard within ~2x of the mean, enough skew to exercise the
// straggler machinery without starving anyone.
const vnodesPerShard = 16

// Partition splits tasks [0, n) across nshards shards by consistent
// hashing, returning each shard's ascending task list. Shards may end
// up empty when nshards approaches n; callers treat an empty shard as
// trivially complete.
func Partition(job uint64, n, nshards int) [][]int {
	if nshards < 1 {
		nshards = 1
	}
	out := make([][]int, nshards)
	if n <= 0 {
		return out
	}
	type point struct {
		hash  uint64
		shard int
	}
	points := make([]point, 0, nshards*vnodesPerShard)
	for s := 0; s < nshards; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			h := digest.Mix64(job ^ digest.Mix64(uint64(s)<<20|uint64(v)+1))
			points = append(points, point{h, s})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].shard < points[j].shard // total order even on hash ties
	})
	hashes := make([]uint64, len(points))
	for i, p := range points {
		hashes[i] = p.hash
	}
	for t := 0; t < n; t++ {
		h := digest.Mix64(job ^ digest.Mix64(uint64(t)+0x5bd1e995))
		i := sort.Search(len(hashes), func(i int) bool { return hashes[i] >= h })
		if i == len(hashes) {
			i = 0 // wrap around the ring
		}
		s := points[i].shard
		out[s] = append(out[s], t)
	}
	return out
}
