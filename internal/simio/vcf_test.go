package simio

import (
	"bytes"
	"testing"

	"repro/internal/genome"
)

func TestWriteVCFGolden(t *testing.T) {
	records := []VCFRecord{
		{Chrom: "chr1", Pos: 99, Ref: genome.MustFromString("A"), Alt: genome.MustFromString("T"), Qual: 42.5, Genotype: Het},
		{Chrom: "chr1", Pos: 9, Ref: genome.MustFromString("AC"), Alt: genome.MustFromString("A"), Qual: 10, Genotype: HomAlt},
		{Chrom: "chr2", Pos: 0, Ref: genome.MustFromString("G"), Alt: genome.MustFromString("GTT"), Qual: 99.9},
		{Chrom: "chr2", Pos: 4, Alt: genome.MustFromString("C"), Qual: 1, Genotype: Het},
	}
	var buf bytes.Buffer
	if err := WriteVCF(&buf, "sample1", records); err != nil {
		t.Fatal(err)
	}
	// Sorted by chromosome then position, 1-based, "." for an empty allele.
	want := "##fileformat=VCFv4.2\n" +
		"##source=genomicsbench-go\n" +
		"##FORMAT=<ID=GT,Number=1,Type=String,Description=\"Genotype\">\n" +
		"#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tsample1\n" +
		"chr1\t10\t.\tAC\tA\t10.0\tPASS\t.\tGT\t1/1\n" +
		"chr1\t100\t.\tA\tT\t42.5\tPASS\t.\tGT\t0/1\n" +
		"chr2\t1\t.\tG\tGTT\t99.9\tPASS\t.\tGT\t0/0\n" +
		"chr2\t5\t.\t.\tC\t1.0\tPASS\t.\tGT\t0/1\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteVCF wrote\n%q\nwant\n%q", got, want)
	}
	if records[0].Pos != 99 {
		t.Error("WriteVCF reordered its input")
	}
}

func TestVCFGenotypeString(t *testing.T) {
	var homRef Genotype
	if homRef.String() != "0/0" || Het.String() != "0/1" || HomAlt.String() != "1/1" {
		t.Error("genotype strings wrong")
	}
}
