package simio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/genome"
)

func TestFastaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	records := []FastaRecord{
		{Name: "chr1", Seq: genome.Random(rng, 200)},
		{Name: "chr2", Seq: genome.Random(rng, 71)}, // forces wrap boundary
		{Name: "empty", Seq: genome.Seq{}},
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFasta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("got %d records, want %d", len(got), len(records))
	}
	for i := range records {
		if got[i].Name != records[i].Name || !got[i].Seq.Equal(records[i].Seq) {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestReadFastaErrors(t *testing.T) {
	if _, err := ReadFasta(strings.NewReader("ACGT\n")); err == nil {
		t.Error("expected error for data before header")
	}
	if _, err := ReadFasta(strings.NewReader(">x\nACGN\n")); err == nil {
		t.Error("expected error for invalid base")
	}
	// Found by FuzzReadFasta: a header with no name used to index an
	// empty field list.
	for _, in := range []string{">\nACGT\n", "> \t\nACGT\n"} {
		if _, err := ReadFasta(strings.NewReader(in)); err == nil {
			t.Errorf("expected error for nameless header %q", in)
		}
	}
}

func TestFastqRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	seq := genome.Random(rng, 50)
	qual := make([]byte, 50)
	for i := range qual {
		qual[i] = byte(rng.Intn(60)) + 2
	}
	records := []FastqRecord{{Name: "read1", Seq: seq, Qual: qual}}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFastq(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "read1" {
		t.Fatalf("bad records %v", got)
	}
	if !got[0].Seq.Equal(seq) {
		t.Error("sequence mismatch")
	}
	for i := range qual {
		if got[0].Qual[i] != qual[i] {
			t.Fatalf("quality %d: got %d want %d", i, got[0].Qual[i], qual[i])
		}
	}
}

func TestWriteFastqLengthMismatch(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFastq(&buf, []FastqRecord{{Name: "x", Seq: genome.MustFromString("ACGT"), Qual: []byte{30}}})
	if err == nil {
		t.Error("expected mismatch error")
	}
}

func TestReadFastqErrors(t *testing.T) {
	cases := []string{
		"ACGT\nACGT\n+\nIIII\n",  // missing @
		"@x\nACGT\nACGT\nIIII\n", // missing +
		"@x\nACGT\n+\nIII\n",     // quality length mismatch
		"@\nACGT\n+\nIIII\n",     // no name (FuzzReadFastq: used to panic)
	}
	for _, in := range cases {
		if _, err := ReadFastq(strings.NewReader(in)); err == nil {
			t.Errorf("expected error for %q", in)
		}
	}
}

func TestCigarStringRoundTrip(t *testing.T) {
	c := Cigar{{10, CigarSoftClip}, {100, CigarMatch}, {2, CigarIns}, {3, CigarDel}, {36, CigarMatch}}
	s := c.String()
	if s != "10S100M2I3D36M" {
		t.Errorf("String = %s", s)
	}
	back, err := ParseCigar(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(c) {
		t.Fatalf("parsed %d elems", len(back))
	}
	for i := range c {
		if back[i] != c[i] {
			t.Errorf("elem %d: %v != %v", i, back[i], c[i])
		}
	}
}

func TestParseCigarStar(t *testing.T) {
	c, err := ParseCigar("*")
	if err != nil || c != nil {
		t.Errorf("ParseCigar(*) = %v, %v", c, err)
	}
	if c.String() != "*" {
		t.Errorf("empty Cigar renders %q", c.String())
	}
}

func TestParseCigarErrors(t *testing.T) {
	// The last two are FuzzParseCigar's: a length that wrapped int came
	// back negative, or zero and so "without positive length".
	for _, s := range []string{"M", "0M", "10", "5X", "3M4", "268435456M", "9223372036854775808M", "18446744073709551616M"} {
		if _, err := ParseCigar(s); err == nil {
			t.Errorf("ParseCigar(%q): expected error", s)
		}
	}
}

func TestCigarLens(t *testing.T) {
	c, _ := ParseCigar("5S90M2I3D10M")
	if got := c.ReadLen(); got != 5+90+2+10 {
		t.Errorf("ReadLen = %d", got)
	}
	if got := c.RefLen(); got != 90+3+10 {
		t.Errorf("RefLen = %d", got)
	}
}

func TestCigarPropertyRoundTrip(t *testing.T) {
	ops := []CigarOp{CigarMatch, CigarIns, CigarDel, CigarSoftClip}
	f := func(lens []uint8) bool {
		var c Cigar
		for i, l := range lens {
			if l == 0 {
				continue
			}
			op := ops[i%len(ops)]
			// Merge adjacent same ops to keep canonical form for comparison.
			if len(c) > 0 && c[len(c)-1].Op == op {
				c[len(c)-1].Len += int(l)
			} else {
				c = append(c, CigarElem{Len: int(l), Op: op})
			}
		}
		back, err := ParseCigar(c.String())
		if err != nil {
			return false
		}
		if len(back) != len(c) {
			return false
		}
		for i := range c {
			if back[i] != c[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlignmentValidate(t *testing.T) {
	c, _ := ParseCigar("4M")
	good := &Alignment{ReadName: "r", Pos: 10, Cigar: c, Seq: genome.MustFromString("ACGT"), Qual: []byte{30, 30, 30, 30}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid alignment rejected: %v", err)
	}
	if got := good.End(); got != 14 {
		t.Errorf("End = %d", got)
	}
	bad := &Alignment{ReadName: "r", Pos: 0, Cigar: c, Seq: genome.MustFromString("ACG")}
	if err := bad.Validate(); err == nil {
		t.Error("CIGAR/seq mismatch accepted")
	}
	neg := &Alignment{ReadName: "r", Pos: -1, Cigar: c, Seq: genome.MustFromString("ACGT")}
	if err := neg.Validate(); err == nil {
		t.Error("negative position accepted")
	}
}

// TestSimulatedAlignmentReconstruction verifies that applying a
// simulated alignment's CIGAR to the reference reproduces the read's
// match columns exactly (substitution columns aside).
func TestSimulatedAlignmentReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ref := genome.Random(rng, 3000)
	cfg := DefaultAlignSim()
	cfg.SubRate = 0 // only indels: every M column must match the reference
	alns := SimulateAlignments(rng, ref, 25, cfg)
	for _, a := range alns {
		refPos, readPos := a.Pos, 0
		for _, e := range a.Cigar {
			switch e.Op {
			case CigarMatch:
				for i := 0; i < e.Len; i++ {
					if a.Seq[readPos] != ref[refPos] {
						t.Fatalf("%s: M column mismatch at ref %d", a.ReadName, refPos)
					}
					refPos++
					readPos++
				}
			case CigarIns, CigarSoftClip:
				readPos += e.Len
			case CigarDel:
				refPos += e.Len
			}
		}
		if readPos != len(a.Seq) {
			t.Fatalf("%s: CIGAR consumed %d of %d read bases", a.ReadName, readPos, len(a.Seq))
		}
	}
}
