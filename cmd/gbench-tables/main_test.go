package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// tables runs the command and returns the tables it printed, each as
// its lines (title first).
func tables(t *testing.T, args ...string) [][]string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d, stderr: %s", args, code, stderr.String())
	}
	var out [][]string
	for _, block := range strings.Split(strings.TrimSpace(stdout.String()), "\n\n") {
		out = append(out, strings.Split(block, "\n"))
	}
	return out
}

// firstFields returns the first column of a table's rows.
func firstFields(table []string) []string {
	var out []string
	for _, row := range table[3:] { // title, header, rule
		if !strings.HasPrefix(row, "note: ") {
			out = append(out, strings.Fields(row)[0])
		}
	}
	return out
}

func TestFixedTablesRender(t *testing.T) {
	config := tables(t, "-t", "config")
	if len(config) != 1 || config[0][0] != "Table I: Baseline system configuration (simulated)" {
		t.Fatalf("-t config printed %q", config)
	}
	for _, row := range []string{
		"L1D cache          32 KB, 8-way, 64 B lines",
		"L2 cache           256 KB, 8-way",
		"LLC                8 MB, 16-way",
	} {
		if !strings.Contains(strings.Join(config[0], "\n"), row) {
			t.Errorf("Table I has no row %q:\n%s", row, strings.Join(config[0], "\n"))
		}
	}

	overview := tables(t, "-t", "overview")
	if len(overview) != 1 || overview[0][0] != "Table II: Benchmark overview and parallelism motifs" {
		t.Fatalf("-t overview printed %q", overview)
	}
	want := "fmi bsw dbg phmm chain spoa abea grm nn-base pileup nn-variant kmer-cnt"
	if got := strings.Join(firstFields(overview[0]), " "); got != want {
		t.Errorf("Table II lists %s, want the suite order %s", got, want)
	}
	if row := strings.Join(strings.Fields(overview[0][3+7]), " "); row != "grm PLINK2 population dense matrix multiplication regular" {
		t.Errorf("Table II's grm row is %q", row)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // on stderr
	}{
		{[]string{"-t", "nope"}, `unknown table "nope"; have: config overview granularity gpu-control gpu-memory vector-waste imbalance instmix bpki scaling cache topdown cache-sweep` + "\n"},
		{[]string{"-size", "huge"}, `"huge"`},
		{[]string{"-nope"}, "-nope"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr does not say %s:\n%s", tc.args, tc.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a usage error still printed a table:\n%s", tc.args, stdout.String())
		}
	}
}

// TestMeasuredTableSmoke drives one table that runs kernels.
func TestMeasuredTableSmoke(t *testing.T) {
	granularity := tables(t, "-t", "granularity", "-seed", "7")
	want := "fmi bsw dbg phmm chain spoa abea pileup"
	if got := strings.Join(firstFields(granularity[0]), " "); len(granularity) != 1 || got != want {
		t.Errorf("Table III lists %s, want the irregular kernels %s", got, want)
	}
}

// TestDefaultRunPrintsEveryArtefact: with no -t the command prints
// core.Artefacts, all of it and in its order (cache-sweep, the one
// entry that is not the paper's, once fell out of the default).
func TestDefaultRunPrintsEveryArtefact(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every table, Figure 7's thread sweep included")
	}
	titles := []string{
		"Table I:", "Table II:", "Table III:", "Table IV:", "Table V:", "Section IV-B:",
		"Figure 4:", "Figure 5:", "Figure 6:", "Figure 7:", "Figure 8:", "Figure 9:",
		"Ablation: BPKI versus LLC size",
	}
	if len(titles) != len(core.Artefacts) {
		t.Fatalf("core.Artefacts has %d entries, this test knows %d titles", len(core.Artefacts), len(titles))
	}
	got := tables(t)
	if len(got) != len(titles) {
		t.Fatalf("default run printed %d tables, want %d", len(got), len(titles))
	}
	for i, table := range got {
		if !strings.HasPrefix(table[0], titles[i]) {
			t.Errorf("table %d (%s) is titled %q, want %q...", i, core.Artefacts[i].ID, table[0], titles[i])
		}
	}
}
