// Package genome provides the basic sequence types and seeded generators
// shared by every GenomicsBench kernel: 2-bit base coding, reference
// genome synthesis, variant planting and k-mer utilities.
//
// All randomness is driven by explicit *rand.Rand sources so that every
// dataset in the suite is reproducible from a seed.
package genome

import (
	"fmt"
	"math/rand"
	"strings"
)

// Base is a 2-bit encoded nucleotide: A=0, C=1, G=2, T=3.
type Base = byte

// Canonical base codes.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// baseLetters maps 2-bit codes to ASCII letters.
var baseLetters = [4]byte{'A', 'C', 'G', 'T'}

// letterCodes maps ASCII letters (upper or lower case) to 2-bit codes;
// entries of 0xFF mark non-nucleotide characters.
var letterCodes [256]byte

func init() {
	for i := range letterCodes {
		letterCodes[i] = 0xFF
	}
	for code, letter := range baseLetters {
		letterCodes[letter] = byte(code)
		letterCodes[letter+'a'-'A'] = byte(code)
	}
}

// Seq is a nucleotide sequence in 2-bit-per-base code, one base per byte.
type Seq []Base

// FromString parses an ASCII sequence of A/C/G/T (case-insensitive).
// It returns an error on the first non-nucleotide character.
func FromString(s string) (Seq, error) {
	out := make(Seq, len(s))
	for i := 0; i < len(s); i++ {
		code := letterCodes[s[i]]
		if code == 0xFF {
			return nil, fmt.Errorf("genome: invalid base %q at position %d", s[i], i)
		}
		out[i] = code
	}
	return out, nil
}

// MustFromString is FromString for constant inputs in tests and examples.
func MustFromString(s string) Seq {
	seq, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return seq
}

// String renders the sequence as ASCII letters.
func (s Seq) String() string {
	var b strings.Builder
	b.Grow(len(s))
	for _, base := range s {
		b.WriteByte(baseLetters[base&3])
	}
	return b.String()
}

// Letter returns the ASCII letter for a base code.
func Letter(b Base) byte { return baseLetters[b&3] }

// Complement returns the Watson-Crick complement of a single base.
func Complement(b Base) Base { return 3 - (b & 3) }

// ReverseComplement returns a newly allocated reverse complement of s.
func (s Seq) ReverseComplement() Seq {
	out := make(Seq, len(s))
	for i, b := range s {
		out[len(s)-1-i] = Complement(b)
	}
	return out
}

// Clone returns a copy of s.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two sequences are base-for-base identical.
func (s Seq) Equal(t Seq) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Random returns a uniform random sequence of n bases.
func Random(rng *rand.Rand, n int) Seq {
	out := make(Seq, n)
	for i := range out {
		out[i] = Base(rng.Intn(4))
	}
	return out
}

// Reference is a synthetic reference genome: a named sequence plus the
// set of variants planted into donor copies derived from it.
type Reference struct {
	Name string
	Seq  Seq
}

// NewReference synthesizes a reference of n bases. To mimic the repeat
// structure of real genomes (which matters for seeding kernels such as
// fmi and chain), a fraction of the sequence is built by copying earlier
// segments back in, controlled by repeatFraction in [0,1).
func NewReference(rng *rand.Rand, name string, n int, repeatFraction float64) *Reference {
	seq := make(Seq, 0, n)
	for len(seq) < n {
		if len(seq) > 500 && rng.Float64() < repeatFraction {
			// Copy a 200-500 base segment from earlier in the sequence.
			segLen := 200 + rng.Intn(301)
			start := rng.Intn(len(seq) - segLen + 1)
			if start < 0 {
				start = 0
			}
			end := start + segLen
			if end > len(seq) {
				end = len(seq)
			}
			seq = append(seq, seq[start:end]...)
		} else {
			run := 100 + rng.Intn(400)
			for i := 0; i < run && len(seq) < n; i++ {
				seq = append(seq, Base(rng.Intn(4)))
			}
		}
	}
	return &Reference{Name: name, Seq: seq[:n]}
}

// VariantKind distinguishes the classes of small variants the suite
// plants in donor genomes.
type VariantKind uint8

// Variant kinds.
const (
	SNV VariantKind = iota
	Insertion
	Deletion
)

func (k VariantKind) String() string {
	switch k {
	case SNV:
		return "SNV"
	case Insertion:
		return "INS"
	case Deletion:
		return "DEL"
	default:
		return fmt.Sprintf("VariantKind(%d)", uint8(k))
	}
}

// Variant is a planted difference between a donor genome and the
// reference, positioned on the reference coordinate system.
type Variant struct {
	Kind VariantKind
	Pos  int  // reference offset
	Ref  Seq  // reference bases consumed (empty for insertions)
	Alt  Seq  // donor bases emitted (empty for deletions)
	Het  bool // heterozygous: present on only one haplotype
}

// Donor is a sample genome derived from a reference by applying variants.
type Donor struct {
	Ref      *Reference
	Variants []Variant
	Haps     [2]Seq // two haplotype sequences
}

// PlantVariants derives a donor genome carrying approximately
// snvRate/indelRate variants per base. Indel lengths are 1-10 bases.
// Roughly half of the variants are heterozygous.
func PlantVariants(rng *rand.Rand, ref *Reference, snvRate, indelRate float64) *Donor {
	d := &Donor{Ref: ref}
	pos := 0
	for pos < len(ref.Seq) {
		r := rng.Float64()
		switch {
		case r < snvRate:
			old := ref.Seq[pos]
			alt := Base(rng.Intn(3))
			if alt >= old {
				alt++
			}
			d.Variants = append(d.Variants, Variant{
				Kind: SNV, Pos: pos,
				Ref: Seq{old}, Alt: Seq{alt},
				Het: rng.Intn(2) == 0,
			})
			pos++
		case r < snvRate+indelRate:
			n := 1 + rng.Intn(10)
			if rng.Intn(2) == 0 {
				d.Variants = append(d.Variants, Variant{
					Kind: Insertion, Pos: pos,
					Alt: Random(rng, n),
					Het: rng.Intn(2) == 0,
				})
				pos++
			} else {
				if pos+n > len(ref.Seq) {
					n = len(ref.Seq) - pos
				}
				d.Variants = append(d.Variants, Variant{
					Kind: Deletion, Pos: pos,
					Ref: ref.Seq[pos : pos+n].Clone(),
					Het: rng.Intn(2) == 0,
				})
				pos += n
			}
		default:
			pos++
		}
	}
	for hap := 0; hap < 2; hap++ {
		d.Haps[hap] = applyVariants(ref.Seq, d.Variants, hap, rng)
	}
	return d
}

// applyVariants builds one haplotype. Heterozygous variants land on
// haplotype 0 or 1 (chosen deterministically from position parity so the
// two haplotypes differ), homozygous variants land on both.
func applyVariants(ref Seq, variants []Variant, hap int, rng *rand.Rand) Seq {
	out := make(Seq, 0, len(ref)+len(ref)/100)
	pos := 0
	for _, v := range variants {
		if v.Het && v.Pos%2 != hap {
			continue
		}
		if v.Pos < pos {
			continue // overlapping variant already consumed
		}
		out = append(out, ref[pos:v.Pos]...)
		out = append(out, v.Alt...)
		pos = v.Pos + len(v.Ref)
	}
	out = append(out, ref[pos:]...)
	return out
}

// KmerCode packs the k bases starting at s[i] into a 2-bit-per-base
// integer (first base in the most significant position). k must be ≤ 31.
func KmerCode(s Seq, i, k int) uint64 {
	var code uint64
	for j := 0; j < k; j++ {
		code = code<<2 | uint64(s[i+j]&3)
	}
	return code
}

// EachKmer calls fn for every k-mer of s with its packed code, using a
// rolling update (O(1) per k-mer).
func EachKmer(s Seq, k int, fn func(pos int, code uint64)) {
	if len(s) < k || k <= 0 || k > 31 {
		return
	}
	mask := uint64(1)<<(2*uint(k)) - 1
	code := KmerCode(s, 0, k)
	fn(0, code)
	for i := 1; i+k <= len(s); i++ {
		code = (code<<2 | uint64(s[i+k-1]&3)) & mask
		fn(i, code)
	}
}

// KmerString decodes a packed k-mer code back into letters.
func KmerString(code uint64, k int) string {
	buf := make([]byte, k)
	for i := k - 1; i >= 0; i-- {
		buf[i] = baseLetters[code&3]
		code >>= 2
	}
	return string(buf)
}
