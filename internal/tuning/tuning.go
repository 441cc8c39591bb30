// Package tuning lists the suite's dispatch constants for the
// benchmark's host stamp. Each value is a constant in the package that
// owns it; docs/PERFORMANCE.md says why it has the value it has.
package tuning

import (
	"repro/internal/fmindex"
	"repro/internal/kmercnt"
	"repro/internal/pileup"
)

// Resolved is one dispatch constant, for logging.
type Resolved struct {
	Name  string
	Value int
}

// ResolveAll returns every dispatch constant, sorted by name. The
// literals record choices that are no longer made: the wide tiers run
// every eligible problem, the region loops use the shared counter, and
// pileup has no walker between the byte walk and the packed walk.
func ResolveAll() []Resolved {
	return []Resolved{
		{"fmindex.batch_width", fmindex.BatchWidth},
		{"kmercnt.wave_width", kmercnt.WaveWidth},
		{"lanes.wide_min_work", 0},
		{"parallel.dispatch", 0},
		{"pileup.short_run_min", pileup.PackedRunMin},
		{"pileup.word_run_min", pileup.PackedRunMin},
	}
}
