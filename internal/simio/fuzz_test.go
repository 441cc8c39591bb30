package simio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"repro/internal/genome"
)

// The readers take files from outside the program, so whatever the
// bytes are they must answer with records or an error, never a panic.
// Seeds are the fixtures of the unit tests: well-formed plain and
// gzipped files, their truncations, and the corrupt-gzip header.

// gzipSeeds adds data, a mid-stream truncation of it, and the
// corrupt-header fixture of TestMaybeGzipCorruptHeader.
func gzipSeeds(f *testing.F, data []byte) {
	f.Add(data)
	f.Add(data[:len(data)*55/100])
	f.Add([]byte{0x1f, 0x8b, 0xff, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06})
}

func FuzzReadFastq(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	var records []FastqRecord
	for i := 0; i < 8; i++ {
		qual := make([]byte, 40)
		for j := range qual {
			qual[j] = byte(25 + rng.Intn(15))
		}
		records = append(records, FastqRecord{Name: "read", Seq: genome.Random(rng, 40), Qual: qual})
	}
	gzipSeeds(f, gzipped(f, func(w io.Writer) error { return WriteFastq(w, records) }))
	for _, s := range []string{
		"@r1 desc\nACGT\n+\nIIII\n",
		"@r1\nACGT\n+\nIIII\n@r2\nACGT\n", // clean EOF mid-record
		"@r1\nACGT\n+\nIII\n",             // short qualities
		"@r1\nACGT\n+\nII\x1fI\n",         // quality byte below '!'
		"@r1\nACGX\n+\nIIII\n",
		"@\nA\n+\nI\n",
		"r1\nACGT\n+\nIIII\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadFastqAuto(bytes.NewReader(data))
		var se *StreamError
		switch {
		case errors.As(err, &se):
			if se.Format != "fastq" || se.Records != len(got) {
				t.Fatalf("%+v returned with %d records", se, len(got))
			}
		case err != nil && got != nil:
			t.Fatalf("records returned with a non-stream error: %v", err)
		}
		for i, r := range got {
			if r.Name == "" || len(r.Qual) != len(r.Seq) {
				t.Fatalf("record %d is not complete: %+v", i, r)
			}
		}
	})
}

func FuzzReadFasta(f *testing.F) {
	rng := rand.New(rand.NewSource(8))
	records := make([]FastaRecord, 6)
	for i := range records {
		records[i] = FastaRecord{Name: "seq", Seq: genome.Random(rng, 150)}
	}
	gzipSeeds(f, gzipped(f, func(w io.Writer) error { return WriteFasta(w, records) }))
	for _, s := range []string{
		">chr1 the first\nACGT\nAC\n\n>chr2\nGG\n",
		">chr1\nACGX\n",
		">\nACGT\n",
		"> \nACGT\n",
		"ACGT\n>late\nAC\n",
		">empty\n>next\nA\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadFastaAuto(bytes.NewReader(data))
		var se *StreamError
		switch {
		case errors.As(err, &se):
			if se.Format != "fasta" || se.Records != len(got) {
				t.Fatalf("%+v returned with %d records", se, len(got))
			}
		case err != nil && got != nil:
			t.Fatalf("records returned with a non-stream error: %v", err)
		}
		for i, r := range got {
			if r.Name == "" {
				t.Fatalf("record %d has no name", i)
			}
		}
	})
}
