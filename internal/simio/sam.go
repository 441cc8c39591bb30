package simio

import (
	"bufio"
	"fmt"
	"io"
)

// SAM text output: the lingua franca between alignment and downstream
// kernels (pileup, dbg, nn-variant all consume aligned records). The
// subset here covers single-end records with the flags the suite uses.

// FlagReverse is the SAM flag bit of a reverse-strand record.
const FlagReverse = 0x10

// WriteSAM writes a header (@HD + @SQ per reference) and the records.
func WriteSAM(w io.Writer, refs []FastaRecord, alignments []*Alignment) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "@HD\tVN:1.6\tSO:unknown")
	for _, r := range refs {
		fmt.Fprintf(bw, "@SQ\tSN:%s\tLN:%d\n", r.Name, len(r.Seq))
	}
	fmt.Fprintln(bw, "@PG\tID:genomicsbench-go\tPN:genomicsbench-go")
	for _, a := range alignments {
		if err := a.Validate(); err != nil {
			return err
		}
		flag := 0
		if a.Reverse {
			flag |= FlagReverse
		}
		qual := "*"
		if len(a.Qual) > 0 {
			qb := make([]byte, len(a.Qual))
			for i, q := range a.Qual {
				if q > 93 {
					q = 93
				}
				qb[i] = q + 33
			}
			qual = string(qb)
		}
		seq := "*"
		if len(a.Seq) > 0 {
			seq = a.Seq.String()
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%s\t%d\t%d\t%s\t*\t0\t0\t%s\t%s\n",
			a.ReadName, flag, a.RefName, a.Pos+1, a.MapQ, a.Cigar, seq, qual); err != nil {
			return err
		}
	}
	return bw.Flush()
}
