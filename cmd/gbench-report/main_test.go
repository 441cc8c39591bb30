package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// writeSuiteMetrics runs one small kernel through core.RunSuite and
// writes the metrics file gbench -metrics would have written.
func writeSuiteMetrics(t *testing.T) string {
	t.Helper()
	b, err := core.ByName("fmi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.SuiteConfig{Size: core.Small, Seed: 42, Threads: 1, Policy: core.PolicyFor(core.Small), Obs: obs.NewObserver()}
	outcomes := core.RunSuite(context.Background(), []core.Benchmark{b}, cfg)
	var buf bytes.Buffer
	if err := core.WriteMetricsNDJSON(&buf, core.NewRunMeta(cfg, ""), outcomes, nil, cfg.Obs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.ndjson")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMetricsReportRendersSuiteRun(t *testing.T) {
	path := writeSuiteMetrics(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-metrics", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, heading := range []string{
		"# Suite metrics report",
		"## Suite metrics\n",
		"## Scheduler and resilience metrics\n",
	} {
		if !strings.Contains(out, heading) {
			t.Errorf("report lacks %q:\n%s", heading, out)
		}
	}
	if !regexp.MustCompile(`(?m)^\s*fmi\s+ok\s+\d`).MatchString(out) {
		t.Errorf("report lacks an ok fmi kernel row:\n%s", out)
	}
	if strings.Contains(out, "reproduction report") {
		t.Error("-metrics without -full also rendered the paper report")
	}
}

func TestMalformedMetricsFileExitsOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.ndjson")
	if err := os.WriteFile(path, []byte("{\"type\":\"meta\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-metrics", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
}

// The trend and per-stage scenario renderers went with the ratio
// ledger; their flags must be refused, not silently ignored.
func TestRetiredFlagsAreUsageErrors(t *testing.T) {
	for _, name := range []string{"-history", "-scenarios"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{name, "x.ndjson"}, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", name, code)
		}
		if !strings.Contains(stderr.String(), "flag provided but not defined") {
			t.Errorf("%s: stderr %q does not name the unknown flag", name, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote a report anyway", name)
		}
	}
}
