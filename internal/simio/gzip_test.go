package simio

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/genome"
)

// gzipped compresses what write produces into a .gz fixture.
func gzipped(tb testing.TB, write func(io.Writer) error) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := write(zw); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestGzipFastqRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var records []FastqRecord
	for i := 0; i < 10; i++ {
		seq := genome.Random(rng, 151)
		qual := make([]byte, 151)
		for j := range qual {
			qual[j] = byte(30 + rng.Intn(10))
		}
		records = append(records, FastqRecord{Name: "r", Seq: seq, Qual: qual})
	}
	data := gzipped(t, func(w io.Writer) error { return WriteFastq(w, records) })
	got, err := ReadFastqAuto(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("round trip %d -> %d records", len(records), len(got))
	}
	for i := range records {
		if !got[i].Seq.Equal(records[i].Seq) {
			t.Fatal("sequence corrupted")
		}
	}
}

func TestGzipFastaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	records := []FastaRecord{{Name: "chr", Seq: genome.Random(rng, 500)}}
	data := gzipped(t, func(w io.Writer) error { return WriteFasta(w, records) })
	got, err := ReadFastaAuto(bytes.NewReader(data))
	if err != nil || len(got) != 1 || !got[0].Seq.Equal(records[0].Seq) {
		t.Fatalf("gzip FASTA round trip failed: %v", err)
	}
}

func TestAutoReadersAcceptPlainText(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	records := []FastaRecord{{Name: "chr", Seq: genome.Random(rng, 100)}}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFastaAuto(&buf)
	if err != nil || len(got) != 1 {
		t.Fatalf("plain FASTA through auto reader failed: %v", err)
	}
}

func TestMaybeGzipShortInput(t *testing.T) {
	r, err := MaybeGzip(bytes.NewReader([]byte{'x'}))
	if err != nil || r == nil {
		t.Fatal("short input should pass through")
	}
}

// makeFastqGz builds an n-record gzipped FASTQ fixture.
func makeFastqGz(t *testing.T, n int) ([]byte, []FastqRecord) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	records := make([]FastqRecord, 0, n)
	for i := 0; i < n; i++ {
		seq := genome.Random(rng, 101)
		qual := make([]byte, 101)
		for j := range qual {
			qual[j] = byte(25 + rng.Intn(15))
		}
		records = append(records, FastqRecord{Name: "read", Seq: seq, Qual: qual})
	}
	return gzipped(t, func(w io.Writer) error { return WriteFastq(w, records) }), records
}

func TestReadFastqTruncatedGzip(t *testing.T) {
	data, records := makeFastqGz(t, 200)
	// Chop the compressed byte stream mid-file, as a killed download or
	// full disk would. 55% keeps the gzip header intact but loses the
	// tail and trailer.
	cut := data[:len(data)*55/100]
	got, err := ReadFastqAuto(bytes.NewReader(cut))
	if err == nil {
		t.Fatal("truncated .fastq.gz parsed without error")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want errors.Is(..., io.ErrUnexpectedEOF)", err)
	}
	var se *StreamError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T, want *StreamError", err)
	}
	if se.Format != "fastq" || se.Records != len(got) {
		t.Errorf("StreamError = %+v with %d records returned", se, len(got))
	}
	// Partial decode: some complete records come back, but not all.
	if len(got) == 0 || len(got) >= len(records) {
		t.Errorf("decoded %d/%d records from a 55%% stream", len(got), len(records))
	}
	for i := range got {
		if !got[i].Seq.Equal(records[i].Seq) {
			t.Fatalf("record %d corrupted in partial decode", i)
		}
	}
}

func TestReadFastqCleanMidRecordEOF(t *testing.T) {
	// Plain-text FASTQ ending mid-record (clean EOF after the header).
	in := "@r1\nACGT\n+\nIIII\n@r2\nACGT\n"
	got, err := ReadFastq(bytes.NewReader([]byte(in)))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	var se *StreamError
	if !errors.As(err, &se) || se.Records != 1 || len(got) != 1 {
		t.Errorf("want 1 complete record surfaced, got %d (err %v)", len(got), err)
	}
}

func TestReadFastaTruncatedGzip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	records := make([]FastaRecord, 40)
	for i := range records {
		records[i] = FastaRecord{Name: "seq", Seq: genome.Random(rng, 300)}
	}
	data := gzipped(t, func(w io.Writer) error { return WriteFasta(w, records) })
	cut := data[:len(data)/2]
	got, err := ReadFastaAuto(bytes.NewReader(cut))
	if err == nil {
		t.Fatal("truncated .fa.gz parsed without error")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want errors.Is(..., io.ErrUnexpectedEOF)", err)
	}
	var se *StreamError
	if !errors.As(err, &se) || se.Format != "fasta" || se.Records != len(got) {
		t.Errorf("err = %v with %d records", err, len(got))
	}
	if len(got) == 0 || len(got) >= len(records) {
		t.Errorf("decoded %d/%d records from a half stream", len(got), len(records))
	}
}

func TestMaybeGzipCorruptHeader(t *testing.T) {
	// Correct magic, garbage after: NewReader must fail cleanly.
	bad := []byte{0x1f, 0x8b, 0xff, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06}
	if _, err := MaybeGzip(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt gzip header accepted")
	}
}
