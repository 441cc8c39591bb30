package fmindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/genome"
)

// Index serialization: building the FMD index costs O(n) time but
// seconds of wall clock at genome scale, so real aligners persist it
// (BWA-MEM2 writes .bwt/.sa/.pac files). WriteTo/ReadIndex provide a
// single-file equivalent with a version header and CRC trailer.

const (
	indexMagic   = 0x464d4931 // "FMI1"
	indexVersion = 3
)

// WriteTo serializes the index. It returns the byte count written.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: bufio.NewWriter(w)}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(cw, crc)

	writeU64 := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := mw.Write(buf[:])
		return err
	}
	header := []uint64{
		indexMagic, indexVersion,
		uint64(x.textLen), uint64(x.primary),
		uint64(len(x.genome)), uint64(len(x.bwt)),
		uint64(len(x.saMarked)), uint64(len(x.saRank)),
		uint64(len(x.saVals)), uint64(x.saRate),
	}
	for _, v := range header {
		if err := writeU64(v); err != nil {
			return cw.n, err
		}
	}
	if _, err := mw.Write(x.genome); err != nil {
		return cw.n, err
	}
	if _, err := mw.Write(x.bwt); err != nil {
		return cw.n, err
	}
	for _, v := range x.saMarked {
		if err := writeU64(v); err != nil {
			return cw.n, err
		}
	}
	for _, v := range x.saRank {
		if err := writeU64(uint64(uint32(v))); err != nil {
			return cw.n, err
		}
	}
	for _, v := range x.saVals {
		if err := writeU64(uint64(uint32(v))); err != nil {
			return cw.n, err
		}
	}
	// c table.
	for _, v := range x.c {
		if err := writeU64(uint64(v)); err != nil {
			return cw.n, err
		}
	}
	// CRC trailer (not itself checksummed).
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], crc.Sum32())
	if _, err := cw.Write(buf[:]); err != nil {
		return cw.n, err
	}
	return cw.n, cw.w.(*bufio.Writer).Flush()
}

// ReadIndex deserializes an index written by WriteTo, verifying the
// magic, version and checksum.
func ReadIndex(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	tr := io.TeeReader(br, crc)

	readU64 := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(tr, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	var header [10]uint64
	for i := range header {
		v, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("fmindex: truncated header: %w", err)
		}
		header[i] = v
	}
	if header[0] != indexMagic {
		return nil, fmt.Errorf("fmindex: bad magic %#x", header[0])
	}
	if header[1] != indexVersion {
		return nil, fmt.Errorf("fmindex: index file is version %d, this build reads version %d", header[1], indexVersion)
	}
	const maxLen = 1 << 34
	for _, v := range header[2:] {
		if v > maxLen {
			return nil, fmt.Errorf("fmindex: implausible section size %d", v)
		}
	}
	// One BWT row per text position plus the sentinel: the Occ blocks
	// are sized from bwt and indexed by rows up to textLen+1.
	if header[5] != header[2]+1 {
		return nil, fmt.Errorf("fmindex: %d BWT rows for text length %d", header[5], header[2])
	}
	if header[9] < 2 {
		return nil, fmt.Errorf("fmindex: corrupt SA sampling rate %d", header[9])
	}
	x := &Index{
		textLen: int(header[2]),
		primary: int(header[3]),
		genome:  make(genome.Seq, header[4]),
		bwt:     make([]byte, header[5]),
		saRate:  int(header[9]),
	}
	if _, err := io.ReadFull(tr, x.genome); err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(tr, x.bwt); err != nil {
		return nil, err
	}
	x.saMarked = make([]uint64, header[6])
	for i := range x.saMarked {
		v, err := readU64()
		if err != nil {
			return nil, err
		}
		x.saMarked[i] = v
	}
	x.saRank = make([]int32, header[7])
	for i := range x.saRank {
		v, err := readU64()
		if err != nil {
			return nil, err
		}
		x.saRank[i] = int32(uint32(v))
	}
	x.saVals = make([]int32, header[8])
	for i := range x.saVals {
		v, err := readU64()
		if err != nil {
			return nil, err
		}
		x.saVals[i] = int32(uint32(v))
	}
	for i := range x.c {
		v, err := readU64()
		if err != nil {
			return nil, err
		}
		x.c[i] = int(v)
	}
	want := crc.Sum32()
	var buf [4]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return nil, fmt.Errorf("fmindex: missing checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != want {
		return nil, fmt.Errorf("fmindex: checksum mismatch %#x != %#x", got, want)
	}
	// The Occ blocks are derived state, rebuilt rather than serialized.
	x.buildBlocks()
	return x, nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
