package simio

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
)

// Real sequencing files ship gzipped (.fastq.gz, .fa.gz). MaybeGzip
// sniffs the two-byte gzip magic and transparently wraps the reader,
// so every parser in this package accepts both plain and compressed
// streams.

// MaybeGzip returns a reader that decompresses r when it carries a
// gzip stream and passes it through otherwise.
func MaybeGzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err != nil {
		// Too short to be gzipped; let the downstream parser report.
		return br, nil
	}
	if magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("simio: corrupt gzip header: %w", err)
		}
		return zr, nil
	}
	return br, nil
}

// ReadFastaAuto is ReadFasta with transparent gzip handling.
func ReadFastaAuto(r io.Reader) ([]FastaRecord, error) {
	rr, err := MaybeGzip(r)
	if err != nil {
		return nil, err
	}
	return ReadFasta(rr)
}

// ReadFastqAuto is ReadFastq with transparent gzip handling.
func ReadFastqAuto(r io.Reader) ([]FastqRecord, error) {
	rr, err := MaybeGzip(r)
	if err != nil {
		return nil, err
	}
	return ReadFastq(rr)
}
