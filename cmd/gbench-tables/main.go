// Command gbench-tables regenerates the GenomicsBench paper's
// evaluation tables and figures from the Go reproduction, and this
// repository's ablations after them.
//
// Usage:
//
//	gbench-tables                 # everything
//	gbench-tables -t gpu-control  # one table
//
// Table ids are core.Artefacts'; an unknown -t lists them in order.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command; it returns the exit status: 0 when the
// tables were printed, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gbench-tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which = fs.String("t", "all", "table id (or 'all')")
		size  = fs.String("size", "small", "dataset size for measured tables")
		seed  = fs.Int64("seed", 42, "dataset seed")
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

	var ids []string
	printed := false
	for _, a := range core.Artefacts {
		ids = append(ids, a.ID)
		if *which == "all" || *which == a.ID {
			fmt.Fprintln(stdout, a.Gen(sz, *seed))
			printed = true
		}
	}
	if !printed {
		fmt.Fprintf(stderr, "unknown table %q; have: %s\n", *which, strings.Join(ids, " "))
		return 2
	}
	return 0
}
