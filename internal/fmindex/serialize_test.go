package fmindex

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/genome"
)

func TestSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := genome.Random(rng, 1000)
	x := Build(g)
	var buf bytes.Buffer
	n, err := x.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	y, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The deserialized index must answer queries identically.
	for trial := 0; trial < 50; trial++ {
		pat := genome.Random(rng, 3+rng.Intn(10))
		if a, b := x.Count(pat), y.Count(pat); a != b {
			t.Fatalf("Count(%s): %d vs %d", pat, a, b)
		}
	}
	read := g[100:180]
	a := x.FindSMEMs(read, 19, 1, nil)
	b := y.FindSMEMs(read, 19, 1, nil)
	if len(a) != len(b) {
		t.Fatalf("SMEM counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SMEM %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	pa := x.LocateAll(g[50:70], 0)
	pb := y.LocateAll(g[50:70], 0)
	if len(pa) != len(pb) {
		t.Fatal("LocateAll differs")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("LocateAll positions differ")
		}
	}
}

func TestSerializeDetectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := Build(genome.Random(rng, 500))
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xFF
	if _, err := ReadIndex(bytes.NewReader(data)); err == nil {
		t.Error("corrupted index accepted")
	}
}

func TestSerializeBadMagicAndTruncation(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("nonsense"))); err == nil {
		t.Error("garbage accepted")
	}
	rng := rand.New(rand.NewSource(3))
	x := Build(genome.Random(rng, 300))
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadIndex(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Error("truncated index accepted")
	}
	// A file of another format version (version 2 carried an Occ
	// section and an occRate word) is refused by version, before any
	// section is read, and the error names both versions.
	old := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint64(old[8:], 2)
	_, err := ReadIndex(bytes.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "version 2") || !strings.Contains(err.Error(), "version 3") {
		t.Errorf("version-2 header: err = %v, want one naming versions 2 and 3", err)
	}
}
