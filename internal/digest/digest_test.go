package digest

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// TestMatchesHashFNV pins Seed/Word/Bytes to hash/fnv's New64a: the
// three folds this package replaced (scenario.Digest, shard.FoldWord /
// FoldBytes, nnvariant's hash.Hash64) were all that function, and the
// committed scenario digests and shard fingerprints depend on it.
func TestMatchesHashFNV(t *testing.T) {
	cases := []struct {
		name  string
		words []uint64
		bytes []byte
	}{
		{name: "empty"},
		{name: "zero word", words: []uint64{0}},
		{name: "byte order", words: []uint64{0x0102030405060708}},
		{name: "all ones", words: []uint64{^uint64(0), 1, 1 << 63}},
		{name: "bytes only", bytes: []byte("GATTACA")},
		{name: "words then bytes", words: []uint64{7, Seed}, bytes: []byte{0, 0xff, 0x80}},
	}
	for _, c := range cases {
		ref := fnv.New64a()
		h := Seed
		var le [8]byte
		for _, w := range c.words {
			binary.LittleEndian.PutUint64(le[:], w)
			ref.Write(le[:])
			h = Word(h, w)
		}
		ref.Write(c.bytes)
		h = Bytes(h, c.bytes)
		if want := ref.Sum64(); h != want {
			t.Errorf("%s: digest %#x, hash/fnv %#x", c.name, h, want)
		}
	}
}
