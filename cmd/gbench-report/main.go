// Command gbench-report renders a Markdown reproduction report: every
// paper table/figure regenerated, side by side with the paper's
// published values where the paper prints them, ready to paste into
// EXPERIMENTS.md or a CI artifact.
//
// With -metrics it instead (or, with -full, additionally) renders the
// tables recorded in a gbench -metrics NDJSON file: per-kernel
// outcomes, scheduler/resilience metrics, fault accounting and runtime
// samples. Malformed NDJSON is a hard error (exit 1), which is what CI
// leans on to validate metrics files.
//
// Usage:
//
//	gbench-report > report.md
//	gbench -bench all -metrics out.ndjson && gbench-report -metrics out.ndjson
//
// Exit status: 0 report rendered, 1 unreadable or malformed metrics
// file, 2 usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gbench-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		size        = fs.String("size", "small", "dataset size for measured tables")
		seed        = fs.Int64("seed", 42, "dataset seed")
		metricsPath = fs.String("metrics", "", "render tables from a gbench -metrics NDJSON file")
		full        = fs.Bool("full", false, "with -metrics, also regenerate the full paper report")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	sz, err := core.ParseSize(*size)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *metricsPath != "" {
		if err := renderMetrics(stdout, *metricsPath); err != nil {
			fmt.Fprintf(stderr, "gbench-report: %v\n", err)
			return 1
		}
		if !*full {
			return 0
		}
	}

	fmt.Fprintf(stdout, "# GenomicsBench-Go reproduction report\n\n")
	fmt.Fprintf(stdout, "Generated %s, dataset size %s, seed %d.\n\n",
		time.Now().UTC().Format(time.RFC3339), sz, *seed)

	// Headline comparisons with the paper's published values.
	gpu := core.RunGPUKernels(*seed)
	a, n := gpu[0], gpu[1]
	profiles := core.MemoryProfiles(*seed)
	byName := map[string]core.MemProfile{}
	for _, p := range profiles {
		byName[p.Name] = p
	}

	fmt.Fprintln(stdout, "## Headline comparison")
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "| experiment | paper | this run |")
	fmt.Fprintln(stdout, "|---|---|---|")
	row := func(name, paper string, v float64, pct bool) {
		if pct {
			fmt.Fprintf(stdout, "| %s | %s | %.1f%% |\n", name, paper, 100*v)
		} else {
			fmt.Fprintf(stdout, "| %s | %s | %.1f |\n", name, paper, v)
		}
	}
	row("abea warp efficiency", "75.09%", a.Metrics.WarpEfficiency(), true)
	row("abea occupancy", "31.41%", a.Occupancy, true)
	row("abea global load efficiency", "25.5%", a.Metrics.GlobalLoadEfficiency(), true)
	row("nn-base warp efficiency", "100%", n.Metrics.WarpEfficiency(), true)
	row("nn-base occupancy", "88.47%", n.Occupancy, true)
	row("fmi BPKI", "66.8", byName["fmi"].Report.BPKI, false)
	row("kmer-cnt BPKI", "484.1", byName["kmer-cnt"].Report.BPKI, false)
	row("fmi stall cycles", "41.5%", byName["fmi"].Report.StallFraction, true)
	row("kmer-cnt stall cycles", "69.2%", byName["kmer-cnt"].Report.StallFraction, true)
	row("grm retiring slots", "87.7%", byName["grm"].TopDown.Retiring, true)
	fmt.Fprintln(stdout)

	// Full tables as fenced blocks.
	fmt.Fprintln(stdout, "## Regenerated tables and figures")
	fmt.Fprintln(stdout)
	for _, t := range core.AllTables(sz, *seed) {
		title := strings.SplitN(t.Title, ":", 2)[0]
		fmt.Fprintf(stdout, "### %s\n\n```\n%s```\n\n", title, t.String())
	}
	return 0
}

// renderMetrics parses a gbench -metrics NDJSON file and renders its
// tables. Any malformed line fails the whole report.
func renderMetrics(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	mf, err := core.ReadMetricsNDJSON(f)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(mf.Kernels) == 0 {
		return fmt.Errorf("%s holds no kernel records", path)
	}
	fmt.Fprintf(stdout, "# Suite metrics report\n\n")
	if m := mf.Meta; m != nil {
		fmt.Fprintf(stdout, "Run started %s on %s/%s (%s, GOMAXPROCS %d)",
			m.Start, m.OS, m.Arch, m.GoVersion, m.GOMAXPROCS)
		if m.Faults != "" {
			fmt.Fprintf(stdout, ", fault plan `%s`", m.Faults)
		}
		fmt.Fprintf(stdout, ".\n\n")
	}
	for _, t := range core.MetricsTables(mf) {
		title := strings.SplitN(t.Title, " (", 2)[0]
		fmt.Fprintf(stdout, "## %s\n\n```\n%s```\n\n", title, t.String())
	}
	return nil
}
