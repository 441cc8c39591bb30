// Package simio implements the sequence-file formats the suite's driver
// code uses: FASTA and FASTQ reading/writing, CIGAR strings, and a
// SAM-lite alignment record. GenomicsBench added "file I/O-related
// driver code ... for reading inputs and writing results" to every
// extracted kernel; this package is that driver layer.
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

// StreamError reports a failure partway through a sequence stream —
// typically a truncated or corrupted .gz file. Records counts the
// complete records decoded before the failure (they are returned
// alongside the error so callers can degrade gracefully), and Err is
// the underlying cause (io.ErrUnexpectedEOF for mid-stream
// truncation, reachable through errors.Is).
type StreamError struct {
	Format  string // "fasta" or "fastq"
	Records int    // complete records decoded before the error
	Err     error
}

func (e *StreamError) Error() string {
	return fmt.Sprintf("simio: %s stream failed after %d record(s): %v", e.Format, e.Records, e.Err)
}

func (e *StreamError) Unwrap() error { return e.Err }

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

// ReadFasta parses all records from a FASTA stream.
func ReadFasta(r io.Reader) ([]FastaRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var records []FastaRecord
	var name string
	var body strings.Builder
	flush := func() error {
		if name == "" {
			return nil
		}
		seq, err := genome.FromString(body.String())
		if err != nil {
			return fmt.Errorf("simio: record %q: %w", name, err)
		}
		records = append(records, FastaRecord{Name: name, Seq: seq})
		body.Reset()
		return nil
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '>' {
			if err := flush(); err != nil {
				return nil, err
			}
			if name = headerName(line); name == "" {
				return nil, fmt.Errorf("simio: FASTA header %q has no name", line)
			}
			continue
		}
		if name == "" {
			return nil, fmt.Errorf("simio: sequence data before first FASTA header")
		}
		body.WriteString(line)
	}
	if err := sc.Err(); err != nil {
		// Truncated/corrupted stream (e.g. a chopped .fa.gz): hand back
		// the records completed before the failure with a StreamError
		// carrying the count. The in-progress record is dropped — its
		// tail is missing.
		return records, &StreamError{Format: "fasta", Records: len(records), Err: err}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return records, nil
}

// headerName returns the record name of a FASTA/FASTQ header line —
// the first field after the marker byte — or "" when there is none.
func headerName(header string) string {
	if f := strings.Fields(header[1:]); len(f) > 0 {
		return f[0]
	}
	return ""
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

// ReadFastq parses all records from a FASTQ stream. A failure partway
// through (truncated .fastq.gz, corrupted record) returns the records
// completed so far together with a *StreamError carrying the record
// count; mid-record truncation unwraps to io.ErrUnexpectedEOF.
func ReadFastq(r io.Reader) ([]FastqRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var records []FastqRecord
	// fail wraps a mid-stream error. When the scanner stopped on an IO
	// error, that is the root cause — a truncated stream often
	// surfaces first as a malformed final record (the scanner flushes
	// the partial line before reporting the read error).
	fail := func(err error) ([]FastqRecord, error) {
		if serr := sc.Err(); serr != nil {
			err = serr
		}
		return records, &StreamError{Format: "fastq", Records: len(records), Err: err}
	}
	for sc.Scan() {
		header := strings.TrimSpace(sc.Text())
		if header == "" {
			continue
		}
		if header[0] != '@' {
			return fail(fmt.Errorf("bad FASTQ header %q", header))
		}
		name := headerName(header)
		if name == "" {
			return fail(fmt.Errorf("FASTQ header %q has no name", header))
		}
		if !sc.Scan() {
			return fail(io.ErrUnexpectedEOF)
		}
		seq, err := genome.FromString(strings.TrimSpace(sc.Text()))
		if err != nil {
			return fail(fmt.Errorf("record %q: %w", name, err))
		}
		if !sc.Scan() {
			return fail(io.ErrUnexpectedEOF)
		}
		if plus := strings.TrimSpace(sc.Text()); !strings.HasPrefix(plus, "+") {
			return fail(fmt.Errorf("record %q: missing + separator", name))
		}
		if !sc.Scan() {
			return fail(io.ErrUnexpectedEOF)
		}
		qualStr := strings.TrimSpace(sc.Text())
		if len(qualStr) != len(seq) {
			return fail(fmt.Errorf("record %q: %d qualities for %d bases", name, len(qualStr), len(seq)))
		}
		qual := make([]byte, len(qualStr))
		for i := 0; i < len(qualStr); i++ {
			if qualStr[i] < 33 {
				return fail(fmt.Errorf("record %q: invalid quality byte %d", name, qualStr[i]))
			}
			qual[i] = qualStr[i] - 33
		}
		records = append(records, FastqRecord{Name: name, Seq: seq, Qual: qual})
	}
	if err := sc.Err(); err != nil {
		return fail(err)
	}
	return records, nil
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

// maxCigarLen bounds one element's length: BAM stores it in 28 bits,
// and the bound keeps ReadLen and RefLen sums from overflowing.
const maxCigarLen = 1<<28 - 1

// ParseCigar parses SAM CIGAR text. "*" yields an empty Cigar.
func ParseCigar(s string) (Cigar, error) {
	if s == "*" || s == "" {
		return nil, nil
	}
	var out Cigar
	n := 0
	sawDigit := false
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch >= '0' && ch <= '9' {
			if n = n*10 + int(ch-'0'); n > maxCigarLen {
				return nil, fmt.Errorf("simio: CIGAR length in %q exceeds %d", s, maxCigarLen)
			}
			sawDigit = true
			continue
		}
		if !sawDigit || n == 0 {
			return nil, fmt.Errorf("simio: CIGAR op %q without positive length", ch)
		}
		switch CigarOp(ch) {
		case CigarMatch, CigarIns, CigarDel, CigarSoftClip:
			out = append(out, CigarElem{Len: n, Op: CigarOp(ch)})
		default:
			return nil, fmt.Errorf("simio: unsupported CIGAR op %q", ch)
		}
		n = 0
		sawDigit = false
	}
	if sawDigit {
		return nil, fmt.Errorf("simio: trailing CIGAR length without op")
	}
	return out, nil
}

// ReadLen reports how many read bases the CIGAR consumes.
func (c Cigar) ReadLen() int {
	n := 0
	for _, e := range c {
		switch e.Op {
		case CigarMatch, CigarIns, CigarSoftClip:
			n += e.Len
		}
	}
	return n
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

// Validate checks internal consistency of the record.
func (a *Alignment) Validate() error {
	if got := a.Cigar.ReadLen(); len(a.Cigar) > 0 && got != len(a.Seq) {
		return fmt.Errorf("simio: alignment %q: CIGAR consumes %d read bases, sequence has %d", a.ReadName, got, len(a.Seq))
	}
	if len(a.Qual) != 0 && len(a.Qual) != len(a.Seq) {
		return fmt.Errorf("simio: alignment %q: %d qualities for %d bases", a.ReadName, len(a.Qual), len(a.Seq))
	}
	if a.Pos < 0 {
		return fmt.Errorf("simio: alignment %q: negative position", a.ReadName)
	}
	return nil
}

// End returns one past the last reference base the alignment covers.
func (a *Alignment) End() int { return a.Pos + a.Cigar.RefLen() }
