package fmindex

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/genome"
)

// count returns the number of occurrences of pattern in the indexed
// text (both strands of the genome).
func (x *Index) count(pattern genome.Seq) int {
	_, s := x.BackwardSearch(pattern)
	return s
}

// naiveSuffixArray sorts suffixes directly.
func naiveSuffixArray(text []byte) []int32 {
	sa := make([]int32, len(text))
	for i := range sa {
		sa[i] = int32(i)
	}
	sort.Slice(sa, func(a, b int) bool {
		return string(text[sa[a]:]) < string(text[sa[b]:])
	})
	return sa
}

func TestSAISMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]byte{
		{0},
		{1, 1, 1, 1},
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		[]byte("banana_ban"), // larger alphabet path
	}
	for i := 0; i < 30; i++ {
		n := 1 + rng.Intn(200)
		s := make([]byte, n)
		for j := range s {
			s[j] = byte(rng.Intn(4))
		}
		cases = append(cases, s)
	}
	for ci, text := range cases {
		k := 0
		for _, b := range text {
			if int(b) >= k {
				k = int(b) + 1
			}
		}
		got := saisBytes(text, k)
		want := naiveSuffixArray(text)
		if len(got) != len(want) {
			t.Fatalf("case %d: length %d vs %d", ci, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("case %d: sa[%d] = %d, want %d (text %v)", ci, j, got[j], want[j], text)
			}
		}
	}
}

func TestSAISLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	text := make([]byte, 20000)
	for i := range text {
		text[i] = byte(rng.Intn(4))
	}
	sa := saisBytes(text, 4)
	// Spot-check sortedness at many boundaries.
	for i := 1; i < len(sa); i += 37 {
		a, b := sa[i-1], sa[i]
		if string(text[a:]) >= string(text[b:]) {
			t.Fatalf("suffixes %d,%d out of order", a, b)
		}
	}
}

// countOccurrences counts (possibly overlapping) occurrences of pat in text.
func countOccurrences(text, pat string) int {
	if len(pat) == 0 {
		return len(text) + 1
	}
	n := 0
	for i := 0; i+len(pat) <= len(text); i++ {
		if text[i:i+len(pat)] == pat {
			n++
		}
	}
	return n
}

// testText returns the index's underlying text (genome + rc).
func testText(g genome.Seq) string {
	return g.String() + g.ReverseComplement().String()
}

func TestBackwardSearchCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := genome.Random(rng, 600)
	x := Build(g)
	text := testText(g)
	for trial := 0; trial < 100; trial++ {
		plen := 1 + rng.Intn(12)
		var pat genome.Seq
		if rng.Intn(2) == 0 && plen < len(g) {
			start := rng.Intn(len(g) - plen)
			pat = g[start : start+plen].Clone()
		} else {
			pat = genome.Random(rng, plen)
		}
		want := countOccurrences(text, pat.String())
		if got := x.count(pat); got != want {
			t.Fatalf("Count(%s) = %d, want %d", pat, got, want)
		}
	}
}

func TestLocateFindsAllPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := genome.Random(rng, 400)
	x := Build(g)
	text := testText(g)
	for trial := 0; trial < 40; trial++ {
		plen := 4 + rng.Intn(8)
		start := rng.Intn(len(g) - plen)
		pat := g[start : start+plen]
		got := x.LocateAll(pat, 0)
		var want []int
		ps := pat.String()
		for i := 0; i+plen <= len(text); i++ {
			if text[i:i+plen] == ps {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("LocateAll(%s): %v, want %v", pat, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("LocateAll(%s): %v, want %v", pat, got, want)
			}
		}
	}
}

func TestReverseComplementAlsoFound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := genome.Random(rng, 500)
	x := Build(g)
	pat := g[100:120]
	if x.count(pat.ReverseComplement()) == 0 {
		t.Error("reverse complement of a genomic substring not found in FMD index")
	}
}

func TestExtendForwardConsistentWithBackwardSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := genome.Random(rng, 300)
	x := Build(g)
	text := testText(g)
	// Build a pattern forward base by base; interval size must equal
	// the naive occurrence count at every step.
	for trial := 0; trial < 20; trial++ {
		start := rng.Intn(len(g) - 10)
		iv := x.Root()
		for j := 0; j < 10; j++ {
			b := g[start+j]
			iv = x.extendForwardT(iv, nil)[b&3]
			pat := g[start : start+j+1].String()
			want := countOccurrences(text, pat)
			if iv.S != want {
				t.Fatalf("forward extend %q: size %d, want %d", pat, iv.S, want)
			}
		}
	}
}

// naiveSMEMs computes super-maximal exact matches by brute force.
func naiveSMEMs(text string, read genome.Seq, minLen, minHits int) []SMEM {
	rs := read.String()
	occurs := func(b, e int) bool {
		return countOccurrences(text, rs[b:e]) >= minHits
	}
	var maximal [][2]int
	for b := 0; b < len(rs); b++ {
		for e := b + 1; e <= len(rs); e++ {
			if !occurs(b, e) {
				break
			}
			leftMax := b == 0 || !occurs(b-1, e)
			rightMax := e == len(rs) || !occurs(b, e+1)
			if leftMax && rightMax {
				maximal = append(maximal, [2]int{b, e})
			}
		}
	}
	var out []SMEM
	for _, m := range maximal {
		contained := false
		for _, o := range maximal {
			if o != m && o[0] <= m[0] && m[1] <= o[1] {
				contained = true
				break
			}
		}
		if !contained && m[1]-m[0] >= minLen {
			out = append(out, SMEM{QBeg: m[0], QEnd: m[1]})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].QBeg < out[j].QBeg })
	return out
}

func TestSMEMsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		g := genome.Random(rng, 300)
		x := Build(g)
		text := testText(g)
		// Read: a genomic fragment with a couple of mutations so SMEMs
		// break at mismatch points.
		start := rng.Intn(len(g) - 60)
		read := g[start : start+60].Clone()
		for m := 0; m < 2; m++ {
			p := rng.Intn(len(read))
			read[p] = genome.Base(rng.Intn(4))
		}
		minLen := 8
		got := x.FindSMEMs(read, minLen, 1, nil)
		sort.Slice(got, func(i, j int) bool { return got[i].QBeg < got[j].QBeg })
		want := naiveSMEMs(text, read, minLen, 1)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d SMEMs %v, want %d %v", trial, len(got), spans(got), len(want), spans(want))
		}
		for i := range want {
			if got[i].QBeg != want[i].QBeg || got[i].QEnd != want[i].QEnd {
				t.Fatalf("trial %d: SMEM %d = [%d,%d), want [%d,%d)", trial, i,
					got[i].QBeg, got[i].QEnd, want[i].QBeg, want[i].QEnd)
			}
		}
	}
}

func spans(ms []SMEM) [][2]int {
	out := make([][2]int, len(ms))
	for i, m := range ms {
		out[i] = [2]int{m.QBeg, m.QEnd}
	}
	return out
}

func TestSMEMIntervalSizesCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := genome.Random(rng, 400)
	x := Build(g)
	text := testText(g)
	start := rng.Intn(len(g) - 80)
	read := g[start : start+80].Clone()
	read[40] = genome.Complement(read[40])
	for _, m := range x.FindSMEMs(read, 10, 1, nil) {
		pat := read[m.QBeg:m.QEnd].String()
		if want := countOccurrences(text, pat); m.Hits() != want {
			t.Errorf("SMEM [%d,%d) hits %d, want %d", m.QBeg, m.QEnd, m.Hits(), want)
		}
	}
}

func TestSMEMPerfectReadIsOneMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := genome.Random(rng, 5000)
	x := Build(g)
	read := g[1000:1151]
	smems := x.FindSMEMs(read, 19, 1, nil)
	if len(smems) != 1 {
		t.Fatalf("perfect read yielded %d SMEMs, want 1", len(smems))
	}
	if smems[0].QBeg != 0 || smems[0].QEnd != len(read) {
		t.Errorf("SMEM [%d,%d), want full read", smems[0].QBeg, smems[0].QEnd)
	}
}

// Per-worker engines over one index give each read the same SMEMs and
// lookup count however many goroutines share the reads.
func TestKernelDeterministicAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := genome.Random(rng, 2000)
	x := Build(g)
	reads := make([]genome.Seq, 10)
	for i := range reads {
		start := rng.Intn(len(g) - 80)
		reads[i] = g[start : start+80]
	}
	want, wantLk := searchConcurrently(x, reads, 19, 1, 0, nil)
	got, gotLk := searchConcurrently(x, reads, 19, 4, 0, nil)
	compareSMEMs(t, "threads=4", reads, want, got, wantLk, gotLk)
}

func TestBackwardSearchProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := genome.Random(rng, 256)
	x := Build(g)
	text := testText(g)
	f := func(raw []byte) bool {
		if len(raw) == 0 || len(raw) > 15 {
			return true
		}
		pat := make(genome.Seq, len(raw))
		for i, b := range raw {
			pat[i] = genome.Base(b % 4)
		}
		return x.count(pat) == countOccurrences(text, pat.String())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestOptionsDoNotChangeResults(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g := genome.Random(rng, 800)
	configs := []Options{{SARate: 4}, {SARate: 32}, {SARate: 64}}
	indices := make([]*Index, len(configs))
	for i, o := range configs {
		x, err := BuildWithOptionsChecked(g, o)
		if err != nil {
			t.Fatal(err)
		}
		indices[i] = x
	}
	read := g[100:220]
	want := indices[0].FindSMEMs(read, 19, 1, nil)
	for ci := 1; ci < len(indices); ci++ {
		got := indices[ci].FindSMEMs(read, 19, 1, nil)
		if len(got) != len(want) {
			t.Fatalf("config %d: %d SMEMs vs %d", ci, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("config %d SMEM %d differs", ci, j)
			}
		}
	}
	for trial := 0; trial < 30; trial++ {
		pat := genome.Random(rng, 4+rng.Intn(10))
		c0 := indices[0].count(pat)
		for ci := 1; ci < len(indices); ci++ {
			if c := indices[ci].count(pat); c != c0 {
				t.Fatalf("config %d Count(%s) = %d, want %d", ci, pat, c, c0)
			}
		}
		p0 := indices[0].LocateAll(pat, 0)
		for ci := 1; ci < len(indices); ci++ {
			p := indices[ci].LocateAll(pat, 0)
			if len(p) != len(p0) {
				t.Fatalf("config %d LocateAll size differs", ci)
			}
			for j := range p0 {
				if p[j] != p0[j] {
					t.Fatalf("config %d LocateAll positions differ", ci)
				}
			}
		}
	}
}

func TestBuildWithOptionsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := genome.Random(rng, 100)
	for _, o := range []Options{{SARate: 1}, {SARate: 24}} {
		if _, err := BuildWithOptionsChecked(g, o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}

func TestBuildCheckedRejectsBadInput(t *testing.T) {
	if _, err := BuildChecked(nil); err == nil {
		t.Error("BuildChecked(nil) should fail")
	}
	g := genome.Seq{0, 1, 2, 3}
	for _, opts := range []Options{
		{SARate: 0},  // too small
		{SARate: 24}, // not a power of two
	} {
		if _, err := BuildWithOptionsChecked(g, opts); err == nil {
			t.Errorf("BuildWithOptionsChecked(%+v) should fail", opts)
		}
	}
}

func TestBuildCheckedMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := genome.Random(rng, 400)
	x, err := BuildChecked(g)
	if err != nil {
		t.Fatal(err)
	}
	pat := g[50:70]
	if got, want := x.count(pat), Build(g).count(pat); got != want {
		t.Errorf("checked index Count = %d, panicking index = %d", got, want)
	}
}

func TestBuildPanicsOnEmptyGenome(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("Build(nil) did not panic")
		}
	}()
	Build(nil)
}
