package simio

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"repro/internal/genome"
)

// VCF-lite: enough of the Variant Call Format for the suite's variant
// pipelines to emit their calls (single sample, SNVs and small indels,
// GT field only).

// Genotype is a diploid genotype call.
type Genotype int

// Genotype values. The zero Genotype is homozygous reference ("0/0").
const (
	Het Genotype = iota + 1
	HomAlt
)

// String renders the GT field.
func (g Genotype) String() string {
	switch g {
	case Het:
		return "0/1"
	case HomAlt:
		return "1/1"
	default:
		return "0/0"
	}
}

// VCFRecord is one variant call.
type VCFRecord struct {
	Chrom    string
	Pos      int // 0-based internally; written 1-based
	Ref      genome.Seq
	Alt      genome.Seq
	Qual     float64
	Genotype Genotype
}

// WriteVCF writes a minimal single-sample VCF.
func WriteVCF(w io.Writer, sample string, records []VCFRecord) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "##fileformat=VCFv4.2")
	fmt.Fprintln(bw, "##source=genomicsbench-go")
	fmt.Fprintln(bw, `##FORMAT=<ID=GT,Number=1,Type=String,Description="Genotype">`)
	fmt.Fprintf(bw, "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\t%s\n", sample)
	sorted := append([]VCFRecord(nil), records...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Chrom != sorted[j].Chrom {
			return sorted[i].Chrom < sorted[j].Chrom
		}
		return sorted[i].Pos < sorted[j].Pos
	})
	for _, r := range sorted {
		ref := r.Ref.String()
		alt := r.Alt.String()
		if ref == "" {
			ref = "."
		}
		if alt == "" {
			alt = "."
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t.\t%s\t%s\t%.1f\tPASS\t.\tGT\t%s\n",
			r.Chrom, r.Pos+1, ref, alt, r.Qual, r.Genotype); err != nil {
			return err
		}
	}
	return bw.Flush()
}
