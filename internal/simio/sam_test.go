package simio

import (
	"bytes"
	"testing"

	"repro/internal/genome"
)

func TestWriteSAMGolden(t *testing.T) {
	fwd := &Alignment{
		ReadName: "r1", RefName: "chr1", Pos: 9, MapQ: 60,
		Cigar: Cigar{{2, CigarSoftClip}, {4, CigarMatch}, {1, CigarIns}, {1, CigarDel}, {3, CigarMatch}},
		Seq:   genome.MustFromString("ACGTACGTAC"),
		Qual:  []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 100}, // 100 clamps to 93, '~'
	}
	rev := &Alignment{
		ReadName: "r2", RefName: "chr1", Pos: 0, Reverse: true,
		Cigar: Cigar{{4, CigarMatch}}, Seq: genome.MustFromString("ACGT"),
	}
	var buf bytes.Buffer
	refs := []FastaRecord{{Name: "chr1", Seq: make(genome.Seq, 20)}}
	if err := WriteSAM(&buf, refs, []*Alignment{fwd, rev}); err != nil {
		t.Fatal(err)
	}
	want := "@HD\tVN:1.6\tSO:unknown\n" +
		"@SQ\tSN:chr1\tLN:20\n" +
		"@PG\tID:genomicsbench-go\tPN:genomicsbench-go\n" +
		"r1\t0\tchr1\t10\t60\t2S4M1I1D3M\t*\t0\t0\tACGTACGTAC\t!\"#$%&'()~\n" +
		"r2\t16\tchr1\t1\t0\t4M\t*\t0\t0\tACGT\t*\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteSAM wrote\n%q\nwant\n%q", got, want)
	}
}

func TestWriteSAMRejectsInvalidRecords(t *testing.T) {
	four := Cigar{{4, CigarMatch}}
	for _, a := range []*Alignment{
		{ReadName: "r", Cigar: Cigar{{5, CigarMatch}}, Seq: genome.MustFromString("ACGT")}, // CIGAR/seq mismatch
		{ReadName: "r", Cigar: four, Seq: genome.MustFromString("ACGT"), Qual: []byte{30}}, // short qualities
		{ReadName: "r", Pos: -1, Cigar: four, Seq: genome.MustFromString("ACGT")},          // negative position
	} {
		if err := WriteSAM(&bytes.Buffer{}, nil, []*Alignment{a}); err == nil {
			t.Errorf("WriteSAM accepted %+v", a)
		}
	}
}

func TestSAMStarFields(t *testing.T) {
	a := &Alignment{ReadName: "r", RefName: "ref", Pos: 4, MapQ: 0}
	var buf bytes.Buffer
	if err := WriteSAM(&buf, nil, []*Alignment{a}); err != nil {
		t.Fatal(err)
	}
	want := "@HD\tVN:1.6\tSO:unknown\n" +
		"@PG\tID:genomicsbench-go\tPN:genomicsbench-go\n" +
		"r\t0\tref\t5\t0\t*\t*\t0\t0\t*\t*\n"
	if got := buf.String(); got != want {
		t.Errorf("star fields: got %q, want %q", got, want)
	}
}
