package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenFiles pins every file a small seed-42 run writes to the
// SHA-256 in testdata/golden.sha256 (sha256sum format): the FASTA,
// VCF and FASTQ writers end to end, and the generators behind them.
func TestGoldenFiles(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	args := []string{"-out", dir, "-ref-len", "20000", "-short-reads", "100", "-long-reads", "12", "-seed", "42"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		want, name, _ := strings.Cut(line, "  ")
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: sha256 %x, want %s", name, sum, want)
		}
	}
}

func TestExitCodes(t *testing.T) {
	notDir := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want int
	}{
		{[]string{"-ref-len", "ten"}, 2},
		{[]string{"-out", notDir}, 1}, // the output directory cannot be created
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.want {
			t.Errorf("run(%q) = %d, want %d; stderr:\n%s", c.args, code, c.want, stderr.String())
		}
	}
}
