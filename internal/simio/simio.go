// Package simio holds the suite's sequence records and their export
// formats: FASTA, FASTQ and VCF writers, CIGAR strings, a SAM-lite
// alignment record, and the seeded alignment simulator. Every kernel
// input is simulated in process; the writers let gbench-data export
// the same seeded inputs for outside tools.
package simio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/genome"
	"repro/internal/seq2"
)

// FastaRecord is one named sequence.
type FastaRecord struct {
	Name string
	Seq  genome.Seq
}

// WriteFasta writes records in FASTA format with 70-column wrapping.
func WriteFasta(w io.Writer, records []FastaRecord) error {
	bw := bufio.NewWriter(w)
	for _, rec := range records {
		if _, err := fmt.Fprintf(bw, ">%s\n", rec.Name); err != nil {
			return err
		}
		s := rec.Seq.String()
		for len(s) > 0 {
			n := 70
			if n > len(s) {
				n = len(s)
			}
			if _, err := bw.WriteString(s[:n]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
			s = s[n:]
		}
	}
	return bw.Flush()
}

// FastqRecord is one read with per-base qualities.
type FastqRecord struct {
	Name string
	Seq  genome.Seq
	Qual []byte // Phred scores (no ASCII offset)
}

// WriteFastq writes records in 4-line FASTQ format with Phred+33 quality.
func WriteFastq(w io.Writer, records []FastqRecord) error {
	bw := bufio.NewWriter(w)
	for _, rec := range records {
		if len(rec.Qual) != len(rec.Seq) {
			return fmt.Errorf("simio: record %q: %d qualities for %d bases", rec.Name, len(rec.Qual), len(rec.Seq))
		}
		qual := make([]byte, len(rec.Qual))
		for i, q := range rec.Qual {
			if q > 93 {
				q = 93
			}
			qual[i] = q + 33
		}
		if _, err := fmt.Fprintf(bw, "@%s\n%s\n+\n%s\n", rec.Name, rec.Seq, qual); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CigarOp is one alignment operation kind.
type CigarOp byte

// CIGAR operation codes (SAM subset used by the suite).
const (
	CigarMatch    CigarOp = 'M' // alignment match or mismatch
	CigarIns      CigarOp = 'I' // insertion to the reference
	CigarDel      CigarOp = 'D' // deletion from the reference
	CigarSoftClip CigarOp = 'S' // clipped read bases
)

// CigarElem is a run-length CIGAR element.
type CigarElem struct {
	Len int
	Op  CigarOp
}

// Cigar is a full alignment description.
type Cigar []CigarElem

// String renders the CIGAR in SAM text form, "*" when empty.
func (c Cigar) String() string {
	if len(c) == 0 {
		return "*"
	}
	var b strings.Builder
	for _, e := range c {
		b.WriteString(strconv.Itoa(e.Len))
		b.WriteByte(byte(e.Op))
	}
	return b.String()
}

// RefLen reports how many reference bases the CIGAR spans.
func (c Cigar) RefLen() int {
	n := 0
	for _, e := range c {
		switch e.Op {
		case CigarMatch, CigarDel:
			n += e.Len
		}
	}
	return n
}

// Alignment is a SAM-lite alignment record: a read placed on a
// reference with a CIGAR. It is the input unit for the pileup and dbg
// kernels.
type Alignment struct {
	ReadName string
	RefName  string
	Pos      int // 0-based leftmost reference coordinate
	MapQ     byte
	Cigar    Cigar
	Seq      genome.Seq
	Qual     []byte
	Reverse  bool

	// packed is Seq in the 2-bit internal/seq2 layout, filled by Pack.
	// Real BAM records carry packed bases natively; packing once at
	// record construction lets consumers (pileup's match-run counter)
	// walk words instead of bytes without per-use packing cost.
	packed []uint64
}

// Pack stores Seq's 2-bit packed form on the record. Call it once
// after construction (SimulateAlignments does); concurrent readers of
// a shared record must not race with it.
func (a *Alignment) Pack() {
	a.packed = seq2.PackInto(a.packed, a.Seq).WordsSlice()
}

// PackedSeq returns the packed words filled by Pack, or nil when the
// record was never packed (consumers fall back to byte walks).
func (a *Alignment) PackedSeq() []uint64 { return a.packed }

// End returns one past the last reference base the alignment covers.
func (a *Alignment) End() int { return a.Pos + a.Cigar.RefLen() }
