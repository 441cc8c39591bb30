// Package digest is the tree's one FNV-1a 64 fold: scenario output
// digests, shard task digests and job fingerprints, and nn-variant's
// prediction digest all start from Seed and extend it with Word and
// Bytes, so a value folded in one layer can be checked in another.
// Results are bit-identical to hash/fnv's New64a over the same bytes.
// Mix64 is the tree's one SplitMix64 mixer: fault draws, shard
// placement and the pore model all hash through it.
package digest

// Seed is the FNV-1a 64 offset basis every digest starts from.
const Seed = uint64(14695981039346656037)

const prime = uint64(1099511628211)

// Word folds one 64-bit word into h, low byte first.
func Word(h, w uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (w >> s) & 0xff
		h *= prime
	}
	return h
}

// Mix64 is the SplitMix64 mixing function: a bijection on uint64 whose
// outputs over consecutive inputs look i.i.d. uniform.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Bytes folds raw bytes into h.
func Bytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h ^= uint64(b)
		h *= prime
	}
	return h
}
