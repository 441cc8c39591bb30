package genome

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromStringRoundTrip(t *testing.T) {
	cases := []string{"", "A", "ACGT", "acgt", "TTTTGGGGCCCCAAAA"}
	for _, s := range cases {
		seq, err := FromString(s)
		if err != nil {
			t.Fatalf("FromString(%q): %v", s, err)
		}
		if got := seq.String(); got != strings.ToUpper(s) {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestFromStringRejectsInvalid(t *testing.T) {
	for _, s := range []string{"N", "ACGTX", "AC GT", "acgu"} {
		if _, err := FromString(s); err == nil {
			t.Errorf("FromString(%q): expected error", s)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := [][2]Base{{A, T}, {C, G}, {G, C}, {T, A}}
	for _, p := range pairs {
		if got := Complement(p[0]); got != p[1] {
			t.Errorf("Complement(%v) = %v, want %v", Seq{p[0]}, Seq{got}, Seq{p[1]})
		}
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		s := Random(rng, int(n))
		return s.ReverseComplement().ReverseComplement().Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseComplementKnown(t *testing.T) {
	s := MustFromString("AACGT")
	if got := s.ReverseComplement().String(); got != "ACGTT" {
		t.Errorf("ReverseComplement(AACGT) = %s, want ACGTT", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := MustFromString("ACGT")
	c := s.Clone()
	c[0] = T
	if s[0] != A {
		t.Error("Clone shares storage with original")
	}
}

func TestNewReferenceLengthAndContent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 100, 5000} {
		ref := NewReference(rng, "chr", n, 0.3)
		if len(ref.Seq) != n {
			t.Errorf("NewReference(%d): got length %d", n, len(ref.Seq))
		}
		for i, b := range ref.Seq {
			if b > 3 {
				t.Fatalf("invalid base %d at %d", b, i)
			}
		}
	}
}

func TestNewReferenceDeterministic(t *testing.T) {
	a := NewReference(rand.New(rand.NewSource(42)), "x", 2000, 0.25)
	b := NewReference(rand.New(rand.NewSource(42)), "x", 2000, 0.25)
	if !a.Seq.Equal(b.Seq) {
		t.Error("same seed produced different references")
	}
}

func TestPlantVariantsProducesVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ref := NewReference(rng, "chr", 20000, 0)
	donor := PlantVariants(rng, ref, 0.001, 0.0002)
	if len(donor.Variants) == 0 {
		t.Fatal("no variants planted")
	}
	var snv, ins, del int
	for _, v := range donor.Variants {
		switch v.Kind {
		case SNV:
			snv++
			if len(v.Ref) != 1 || len(v.Alt) != 1 {
				t.Errorf("SNV with ref %d alt %d bases", len(v.Ref), len(v.Alt))
			}
			if v.Ref[0] == v.Alt[0] {
				t.Error("SNV alt equals ref")
			}
		case Insertion:
			ins++
			if len(v.Ref) != 0 || len(v.Alt) == 0 {
				t.Error("malformed insertion")
			}
		case Deletion:
			del++
			if len(v.Alt) != 0 || len(v.Ref) == 0 {
				t.Error("malformed deletion")
			}
		}
	}
	if snv == 0 {
		t.Error("expected at least one SNV")
	}
	if ins+del == 0 {
		t.Error("expected at least one indel")
	}
}

func TestPlantVariantsHaplotypesDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := NewReference(rng, "chr", 50000, 0)
	donor := PlantVariants(rng, ref, 0.002, 0.0005)
	if donor.Haps[0].Equal(donor.Haps[1]) {
		t.Error("haplotypes identical despite het variants")
	}
	if donor.Haps[0].Equal(ref.Seq) {
		t.Error("haplotype 0 identical to reference")
	}
}

func TestPlantVariantsZeroRateIsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ref := NewReference(rng, "chr", 3000, 0)
	donor := PlantVariants(rng, ref, 0, 0)
	if !donor.Haps[0].Equal(ref.Seq) || !donor.Haps[1].Equal(ref.Seq) {
		t.Error("zero variant rates should reproduce the reference")
	}
}

func TestKmerCodeMatchesString(t *testing.T) {
	s := MustFromString("ACGTACGT")
	// First base in the most significant 2-bit group: A=0 C=1 G=2 T=3.
	if got := KmerCode(s, 0, 4); got != 0b00_01_10_11 {
		t.Errorf("KmerCode(ACGT) = %#b", got)
	}
	if got := KmerCode(s, 1, 3); got != 0b01_10_11 {
		t.Errorf("KmerCode(CGT) = %#b", got)
	}
	if got := KmerCode(s, 3, 2); got != 0b11_00 {
		t.Errorf("KmerCode(TA) = %#b", got)
	}
}

func TestEachKmerRollingMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := Random(rng, 300)
	for _, k := range []int{1, 2, 15, 31} {
		var count int
		EachKmer(s, k, func(pos int, code uint64) {
			want := KmerCode(s, pos, k)
			if code != want {
				t.Fatalf("k=%d pos=%d: rolling code %x != direct %x", k, pos, code, want)
			}
			count++
		})
		if count != len(s)-k+1 {
			t.Errorf("k=%d: %d k-mers, want %d", k, count, len(s)-k+1)
		}
	}
}

func TestEachKmerDegenerate(t *testing.T) {
	s := MustFromString("ACG")
	calls := 0
	EachKmer(s, 5, func(int, uint64) { calls++ })
	EachKmer(s, 0, func(int, uint64) { calls++ })
	EachKmer(s, 32, func(int, uint64) { calls++ })
	if calls != 0 {
		t.Errorf("degenerate EachKmer made %d calls", calls)
	}
}

func TestVariantKindString(t *testing.T) {
	if SNV.String() != "SNV" || Insertion.String() != "INS" || Deletion.String() != "DEL" {
		t.Error("VariantKind.String mismatch")
	}
}
