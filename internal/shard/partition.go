package shard

// Partition splits tasks [0, n) across nshards shards by a stride
// rotated by the job ID: task t goes to shard (t + job) mod nshards.
// Shard sizes differ by at most one and each shard's task list
// ascends. The layout is a pure function of (job, n, nshards), so
// every schedule of a job reassembles the same digest vector; an
// assignment carries its shard's task list, so no worker derives it.
// Shards are empty only when nshards exceeds n; callers treat an
// empty shard as trivially complete.
func Partition(job uint64, n, nshards int) [][]int {
	if nshards < 1 {
		nshards = 1
	}
	out := make([][]int, nshards)
	rot := int(job % uint64(nshards))
	for s := range out {
		// The first task of shard s: the t in [0, nshards) with
		// (t + job) mod nshards == s.
		for t := (s - rot + nshards) % nshards; t < n; t += nshards {
			out[s] = append(out[s], t)
		}
	}
	return out
}
