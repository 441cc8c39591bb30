package simio

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/genome"
)

// TestFastaRoundTrip pins WriteFasta's bytes: a 71-base record wraps
// after 70 columns, and an empty sequence writes its header alone.
func TestFastaRoundTrip(t *testing.T) {
	records := []FastaRecord{
		{Name: "chr1", Seq: genome.MustFromString("ACGT")},
		{Name: "chr2", Seq: genome.MustFromString(strings.Repeat("ACGTTGCA", 8) + "GGGCCCA")},
		{Name: "empty", Seq: genome.Seq{}},
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, records); err != nil {
		t.Fatal(err)
	}
	const want = ">chr1\nACGT\n" +
		">chr2\n" +
		"ACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCAACGTTGCAGGGCCC\n" +
		"A\n" +
		">empty\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteFasta wrote\n%s\nwant\n%s", got, want)
	}
}

// TestFastqRoundTrip pins WriteFastq's bytes: Phred+33 qualities, a
// quality above 93 clamped to '~', and an empty read as four lines.
func TestFastqRoundTrip(t *testing.T) {
	records := []FastqRecord{
		{Name: "read1", Seq: genome.MustFromString("ACGTA"), Qual: []byte{0, 30, 93, 94, 255}},
		{Name: "empty", Seq: genome.Seq{}, Qual: []byte{}},
	}
	var buf bytes.Buffer
	if err := WriteFastq(&buf, records); err != nil {
		t.Fatal(err)
	}
	const want = "@read1\nACGTA\n+\n!?~~~\n" +
		"@empty\n\n+\n\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteFastq wrote %q, want %q", got, want)
	}
}

func TestWriteFastqLengthMismatch(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFastq(&buf, []FastqRecord{{Name: "x", Seq: genome.MustFromString("ACGT"), Qual: []byte{30}}})
	if err == nil {
		t.Error("expected mismatch error")
	}
}

func TestCigarStringRoundTrip(t *testing.T) {
	c := Cigar{{10, CigarSoftClip}, {100, CigarMatch}, {2, CigarIns}, {3, CigarDel}, {36, CigarMatch}}
	s := c.String()
	if s != "10S100M2I3D36M" {
		t.Errorf("String = %s", s)
	}
}

func TestCigarStringStar(t *testing.T) {
	var c Cigar
	if c.String() != "*" {
		t.Errorf("empty Cigar renders %q", c.String())
	}
}

func TestCigarLens(t *testing.T) {
	c := Cigar{{5, CigarSoftClip}, {90, CigarMatch}, {2, CigarIns}, {3, CigarDel}, {10, CigarMatch}}
	if got := c.RefLen(); got != 90+3+10 {
		t.Errorf("RefLen = %d", got)
	}
	if got := (&Alignment{Pos: 10, Cigar: c}).End(); got != 10+90+3+10 {
		t.Errorf("End = %d", got)
	}
}

func TestCigarPropertyRoundTrip(t *testing.T) {
	ops := []CigarOp{CigarMatch, CigarIns, CigarDel, CigarSoftClip}
	f := func(lens []uint8) bool {
		var c Cigar
		want := ""
		for i, l := range lens {
			if l == 0 {
				continue
			}
			op := ops[i%len(ops)]
			c = append(c, CigarElem{Len: int(l), Op: op})
			want += fmt.Sprintf("%d%c", l, op)
		}
		if want == "" {
			want = "*"
		}
		return c.String() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSimulatedAlignmentReconstruction verifies that applying a
// simulated alignment's CIGAR to the reference reproduces the read's
// match columns exactly (substitution columns aside).
func TestSimulatedAlignmentReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ref := genome.Random(rng, 3000)
	cfg := DefaultAlignSim()
	cfg.SubRate = 0 // only indels: every M column must match the reference
	alns := SimulateAlignments(rng, ref, 25, cfg)
	for _, a := range alns {
		refPos, readPos := a.Pos, 0
		for _, e := range a.Cigar {
			switch e.Op {
			case CigarMatch:
				for i := 0; i < e.Len; i++ {
					if a.Seq[readPos] != ref[refPos] {
						t.Fatalf("%s: M column mismatch at ref %d", a.ReadName, refPos)
					}
					refPos++
					readPos++
				}
			case CigarIns, CigarSoftClip:
				readPos += e.Len
			case CigarDel:
				refPos += e.Len
			}
		}
		if readPos != len(a.Seq) {
			t.Fatalf("%s: CIGAR consumed %d of %d read bases", a.ReadName, readPos, len(a.Seq))
		}
		if len(a.Qual) != len(a.Seq) {
			t.Fatalf("%s: %d qualities for %d bases", a.ReadName, len(a.Qual), len(a.Seq))
		}
	}
}

// TestSimulateAlignmentsAllocs: a simulated record costs its Alignment,
// Seq, Qual, CIGAR, packed words and name — six allocations, each sized
// once from the reference span — plus slack for the rare read that
// outgrows its preallocation. Growing Seq, Qual and the CIGAR by append
// cost ~38 per record at DefaultAlignSim.
func TestSimulateAlignmentsAllocs(t *testing.T) {
	const n = 50
	rng := rand.New(rand.NewSource(5))
	ref := genome.Random(rng, 200_000)
	cfg := DefaultAlignSim()
	perRecord := testing.AllocsPerRun(3, func() {
		rng.Seed(5)
		if got := len(SimulateAlignments(rng, ref, n, cfg)); got != n {
			t.Fatalf("%d records, want %d", got, n)
		}
	}) / n
	if perRecord > 7 {
		t.Errorf("SimulateAlignments: %.2f allocs/record, want <= 7", perRecord)
	}
	t.Logf("SimulateAlignments: %.2f allocs/record", perRecord)
}

// BenchmarkSimulateAlignments times 200 DefaultAlignSim records (~4 kb
// each) from one seed: the cost of pileup's build, one draw at a time.
func BenchmarkSimulateAlignments(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ref := genome.Random(rng, 200_000)
	cfg := DefaultAlignSim()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng.Seed(5)
		SimulateAlignments(rng, ref, 200, cfg)
	}
}
