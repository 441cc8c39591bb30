package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// dataset runs gbench-data at a small seed-42 size, the run whose files
// its own golden test pins, and returns the output directory.
func dataset(t *testing.T) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	out, err := exec.Command(goBin, "run", "repro/cmd/gbench-data",
		"-out", dir, "-ref-len", "20000", "-short-reads", "100", "-long-reads", "12", "-seed", "42").CombinedOutput()
	if err != nil {
		t.Fatalf("gbench-data: %v\n%s", err, out)
	}
	return dir
}

// goldenSums reads testdata/golden.sha256 (sha256sum format).
func goldenSums(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	sums := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, name, _ := strings.Cut(line, "  ")
		sums[name] = sum
	}
	return sums
}

func TestGoldenSAMAndExitCodes(t *testing.T) {
	dir := dataset(t)
	ref := filepath.Join(dir, "reference.fa")
	reads := filepath.Join(dir, "long_reads.fastq")

	// A truncated reference is only detectable when it is gzipped.
	plain, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	refGz := filepath.Join(dir, "reference.fa.gz")
	if err := os.WriteFile(refGz, gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	sums := goldenSums(t)
	for _, c := range []struct {
		name    string
		args    []string
		code    int
		golden  string // SAM on stdout pinned by this golden entry
		warning bool
	}{
		{"mapped", []string{"-ref", ref, "-reads", reads}, 0, "out.sam", false},
		{"truncated reads", []string{"-ref", ref, "-reads", reads, "-faults", "truncate:fastq:100000"}, 0, "truncated.sam", true},
		{"truncated reference", []string{"-ref", refGz, "-reads", reads, "-faults", "truncate:fasta:2000"}, 1, "", false},
		{"missing reads", []string{"-ref", ref}, 2, "", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, c.code, stderr.String())
			}
			if got := strings.Contains(stderr.String(), "warning:"); got != c.warning {
				t.Errorf("warning printed = %v, want %v; stderr:\n%s", got, c.warning, stderr.String())
			}
			if c.golden == "" {
				return
			}
			if sum := sha256.Sum256(stdout.Bytes()); hex.EncodeToString(sum[:]) != sums[c.golden] {
				t.Errorf("SAM sha256 %x, want %s (%s)", sum, sums[c.golden], c.golden)
			}
		})
	}

	// -out writes the bytes stdout carries.
	out := filepath.Join(dir, "out.sam")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-ref", ref, "-reads", reads, "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("-out: exit %d; stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != sums["out.sam"] {
		t.Errorf("-out file sha256 %x differs from the golden SAM", sum)
	}
}
