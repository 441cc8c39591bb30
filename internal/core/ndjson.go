package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/shard"
)

// This file is the suite's machine-readable output: every run can be
// exported as NDJSON (one JSON object per line) carrying provenance
// (meta record), one kernel record per kernel — including failed and
// skipped ones — plus the metric registry, runtime samples and spans.
// docs/OBSERVABILITY.md documents the schema and example jq queries.

// MetricsSchemaVersion is bumped whenever a record shape changes
// incompatibly; readers check it before trusting field meanings.
const MetricsSchemaVersion = 1

// RunMeta is the provenance stamp leading a metrics or trace file.
type RunMeta struct {
	Type       string `json:"type"` // always "meta"
	Schema     int    `json:"schema"`
	Suite      string `json:"suite"`
	Size       string `json:"size"`
	Seed       int64  `json:"seed"`
	Threads    int    `json:"threads"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Faults     string `json:"faults,omitempty"`
	Start      string `json:"start"` // RFC3339
}

// NewRunMeta stamps a meta record for the given suite configuration.
func NewRunMeta(cfg SuiteConfig, faults string) RunMeta {
	return RunMeta{
		Type:       "meta",
		Schema:     MetricsSchemaVersion,
		Suite:      "genomicsbench-go",
		Size:       cfg.Size.String(),
		Seed:       cfg.Seed,
		Threads:    cfg.Threads,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Faults:     faults,
		Start:      time.Now().UTC().Format(time.RFC3339),
	}
}

// TaskWorkRecord summarizes a kernel's per-task work distribution
// (the paper's Figure 4 axis).
type TaskWorkRecord struct {
	Unit      string  `json:"unit"`
	Count     int     `json:"count"`
	Mean      float64 `json:"mean"`
	Max       float64 `json:"max"`
	P50       float64 `json:"p50"`
	P99       float64 `json:"p99"`
	MaxToMean float64 `json:"max_to_mean"`
}

// KernelRecord is one kernel's outcome in a metrics file. Failed and
// skipped kernels still get a record (status + error, zeroed stats) so
// a file always holds exactly one record per kernel that was asked to
// run.
type KernelRecord struct {
	Type      string             `json:"type"` // always "kernel"
	Kernel    string             `json:"kernel"`
	Tool      string             `json:"tool,omitempty"`
	Status    string             `json:"status"`
	Attempts  int                `json:"attempts"`
	ElapsedNs int64              `json:"elapsed_ns,omitempty"`
	Ops       uint64             `json:"ops,omitempty"`
	OpMix     map[string]float64 `json:"op_mix,omitempty"`
	TaskWork  *TaskWorkRecord    `json:"task_work,omitempty"`
	Extra     map[string]float64 `json:"extra,omitempty"`
	Error     string             `json:"error,omitempty"`
	// Shard is the fabric's lifecycle accounting when the kernel ran
	// distributed; Fingerprint is the hex digest-vector fold two runs
	// of the same job must agree on.
	Shard       *shard.Summary `json:"shard,omitempty"`
	Fingerprint string         `json:"fingerprint,omitempty"`
}

// KernelRecords converts suite outcomes into their NDJSON records.
func KernelRecords(outcomes []KernelOutcome) []KernelRecord {
	recs := make([]KernelRecord, 0, len(outcomes))
	for i := range outcomes {
		o := &outcomes[i]
		rec := KernelRecord{
			Type:     "kernel",
			Kernel:   o.Info.Name,
			Tool:     o.Info.Tool,
			Status:   o.Status.String(),
			Attempts: o.Attempts,
		}
		if o.Shard != nil {
			s := *o.Shard
			rec.Shard = &s
			if !o.Failed() {
				rec.Fingerprint = fmt.Sprintf("%016x", o.Fingerprint)
			}
		}
		if o.Failed() {
			if o.Err != nil {
				rec.Error = o.Err.Error()
			}
			recs = append(recs, rec)
			continue
		}
		stats := &o.Stats
		rec.ElapsedNs = stats.Elapsed.Nanoseconds()
		rec.Ops = stats.Counters.Total()
		if rec.Ops > 0 {
			fractions := stats.Counters.Fractions()
			rec.OpMix = make(map[string]float64, len(fractions))
			for c, f := range fractions {
				if f > 0 {
					rec.OpMix[perf.OpClass(c).String()] = f
				}
			}
		}
		if stats.TaskStats != nil && stats.TaskStats.Count() > 0 {
			s := stats.TaskStats.Summarize()
			rec.TaskWork = &TaskWorkRecord{
				Unit: stats.TaskStats.Unit, Count: s.Count, Mean: s.Mean,
				Max: s.Max, P50: s.P50, P99: s.P99, MaxToMean: s.MaxToMean,
			}
		}
		if len(stats.Extra) > 0 {
			rec.Extra = stats.Extra
		}
		recs = append(recs, rec)
	}
	return recs
}

// FaultRecord is one fault clause's armed-vs-tripped accounting.
type FaultRecord struct {
	Type    string `json:"type"` // always "fault"
	Clause  string `json:"clause"`
	Site    string `json:"site"`
	Kind    string `json:"kind"`
	Evals   uint64 `json:"evals"`
	Tripped uint64 `json:"tripped"`
}

// WriteMetricsNDJSON writes the full metrics file for a suite run:
// the meta record, one kernel record per outcome, fault clause
// accounting, every registry metric, and the runtime samples.
func WriteMetricsNDJSON(w io.Writer, meta RunMeta, outcomes []KernelOutcome, faults []FaultRecord, o *obs.Observer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	for _, rec := range KernelRecords(outcomes) {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	for _, f := range faults {
		if err := enc.Encode(f); err != nil {
			return err
		}
	}
	if o != nil {
		for _, m := range o.Metrics.Snapshot() {
			if err := enc.Encode(m); err != nil {
				return err
			}
		}
		for _, s := range o.Sampler.Samples() {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteTraceNDJSON writes the span trace: the meta record followed by
// one record per finished span.
func WriteTraceNDJSON(w io.Writer, meta RunMeta, o *obs.Observer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(meta); err != nil {
		return err
	}
	if o != nil {
		for _, s := range o.Tracer.Spans() {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// MetricsFile is a parsed metrics NDJSON file.
type MetricsFile struct {
	Meta    *RunMeta
	Kernels []KernelRecord
	Faults  []FaultRecord
	Metrics []obs.MetricSnapshot
	Samples []obs.Sample
	Spans   []obs.SpanRecord
}

// ReadMetricsNDJSON parses a metrics (or trace) NDJSON stream
// strictly: every non-empty line must be a JSON object with a known
// "type"; anything else is an error naming the offending line. It
// accepts files from a newer schema only for the record types it
// knows.
func ReadMetricsNDJSON(r io.Reader) (*MetricsFile, error) {
	f := &MetricsFile{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, fmt.Errorf("ndjson line %d: %w", lineNo, err)
		}
		switch head.Type {
		case "meta":
			var m RunMeta
			if err := json.Unmarshal(line, &m); err != nil {
				return nil, fmt.Errorf("ndjson line %d (meta): %w", lineNo, err)
			}
			f.Meta = &m
		case "kernel":
			var k KernelRecord
			if err := json.Unmarshal(line, &k); err != nil {
				return nil, fmt.Errorf("ndjson line %d (kernel): %w", lineNo, err)
			}
			if k.Kernel == "" {
				return nil, fmt.Errorf("ndjson line %d: kernel record without a kernel name", lineNo)
			}
			f.Kernels = append(f.Kernels, k)
		case "fault":
			var fr FaultRecord
			if err := json.Unmarshal(line, &fr); err != nil {
				return nil, fmt.Errorf("ndjson line %d (fault): %w", lineNo, err)
			}
			f.Faults = append(f.Faults, fr)
		case "metric":
			var m obs.MetricSnapshot
			if err := json.Unmarshal(line, &m); err != nil {
				return nil, fmt.Errorf("ndjson line %d (metric): %w", lineNo, err)
			}
			f.Metrics = append(f.Metrics, m)
		case "sample":
			var s obs.Sample
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, fmt.Errorf("ndjson line %d (sample): %w", lineNo, err)
			}
			f.Samples = append(f.Samples, s)
		case "span":
			var s obs.SpanRecord
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, fmt.Errorf("ndjson line %d (span): %w", lineNo, err)
			}
			f.Spans = append(f.Spans, s)
		case "":
			return nil, fmt.Errorf("ndjson line %d: record without a type", lineNo)
		default:
			// Unknown record types from newer writers are skipped, not
			// fatal: the file is still well-formed NDJSON.
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// MetricsTables renders a parsed metrics file as report tables: the
// per-kernel outcome table, the scheduler/resilience metrics that back
// Figures 4 and 7, and — when present — fault-injection accounting
// and a runtime (heap/GC) summary.
func MetricsTables(f *MetricsFile) []*Table {
	var tables []*Table

	title := "Suite metrics"
	if f.Meta != nil {
		title = fmt.Sprintf("Suite metrics (%s inputs, %d threads, seed %d, %s)",
			f.Meta.Size, f.Meta.Threads, f.Meta.Seed, f.Meta.GoVersion)
	}
	kt := &Table{
		Title:   title,
		Columns: []string{"benchmark", "status", "attempts", "elapsed", "tasks", "ops", "task p99", "max/mean", "shard", "error"},
	}
	for _, k := range f.Kernels {
		if k.Status != StatusOK.String() {
			kt.AddRow(k.Kernel, k.Status, k.Attempts, "-", "-", "-", "-", "-",
				ShardCell(k.Shard), FirstLine(k.Error))
			continue
		}
		tasks, p99, ratio := "-", "-", "-"
		if k.TaskWork != nil {
			tasks = fmt.Sprintf("%d", k.TaskWork.Count)
			p99 = fmt.Sprintf("%.3g", k.TaskWork.P99)
			ratio = fmt.Sprintf("%.2fx", k.TaskWork.MaxToMean)
		}
		kt.AddRow(k.Kernel, k.Status, k.Attempts,
			time.Duration(k.ElapsedNs).Round(100*time.Microsecond),
			tasks, k.Ops, p99, ratio, ShardCell(k.Shard), "-")
	}
	tables = append(tables, kt)

	// Scheduler + supervisor metrics, grouped per kernel label.
	st := &Table{
		Title:   "Scheduler and resilience metrics",
		Columns: []string{"metric", "kernel", "kind", "value"},
	}
	for _, m := range f.Metrics {
		switch m.Kind {
		case "histogram":
			st.AddRow(m.Name, m.Label, m.Kind,
				fmt.Sprintf("n=%d p50=%.3g p95=%.3g p99=%.3g %s", m.Count, m.P50, m.P95, m.P99, m.Unit))
		default:
			st.AddRow(m.Name, m.Label, m.Kind, fmt.Sprintf("%g", m.Value))
		}
	}
	if len(st.Rows) > 0 {
		tables = append(tables, st)
	}

	if len(f.Faults) > 0 {
		ft := &Table{
			Title:   "Fault injection: armed vs tripped",
			Columns: []string{"clause", "kind", "site", "evals", "tripped"},
		}
		for _, fr := range f.Faults {
			ft.AddRow(fr.Clause, fr.Kind, fr.Site, fr.Evals, fr.Tripped)
		}
		tables = append(tables, ft)
	}

	if len(f.Samples) > 0 {
		var maxHeap, lastAlloc uint64
		var maxGoroutines int
		first, last := f.Samples[0], f.Samples[len(f.Samples)-1]
		for _, s := range f.Samples {
			if s.HeapInuse > maxHeap {
				maxHeap = s.HeapInuse
			}
			if s.Goroutines > maxGoroutines {
				maxGoroutines = s.Goroutines
			}
			lastAlloc = s.TotalAlloc
		}
		rt := &Table{
			Title:   "Runtime samples",
			Columns: []string{"samples", "peak heap", "total alloc", "GCs", "GC pause", "max goroutines"},
		}
		rt.AddRow(len(f.Samples),
			fmt.Sprintf("%.1f MB", float64(maxHeap)/(1<<20)),
			fmt.Sprintf("%.1f MB", float64(lastAlloc)/(1<<20)),
			last.NumGC-first.NumGC,
			time.Duration(last.GCPauseNs-first.GCPauseNs),
			maxGoroutines)
		tables = append(tables, rt)
	}
	return tables
}

// ShardCell compacts a shard lifecycle summary for a table cell:
// worker count, shard count, and the recovery counters that matter
// when triaging a chaotic run.
func ShardCell(s *shard.Summary) string {
	if s == nil {
		return "-"
	}
	return fmt.Sprintf("%dw/%ds r=%d h=%d x=%d", s.Workers, s.Shards, s.Rescheduled, s.Hedged, s.LeaseExpired)
}

// FirstLine compacts a possibly multi-line error string for a cell.
func FirstLine(s string) string {
	if s == "" {
		return "-"
	}
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			s = s[:i]
			break
		}
	}
	const max = 60
	if len(s) > max {
		s = s[:max-3] + "..."
	}
	return s
}
