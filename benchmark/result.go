package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ResultSet is one complete set of runs: every workload measured once
// on a stamped host. Two of them are what -compare reads.
type ResultSet struct {
	Schema    int              `json:"schema"`
	Host      HostStamp        `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Workloads []WorkloadResult `json:"workloads"`
}

const resultSchema = 1

func (s *ResultSet) workload(name string) *WorkloadResult {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i]
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*ResultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s ResultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != resultSchema {
		return nil, fmt.Errorf("%s: result schema %d, this benchmark reads %d", path, s.Schema, resultSchema)
	}
	return &s, nil
}

// contractValue is one metric in the one-line result.
type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output in single-workload
// mode: the end-to-end metrics of an untraced run, or the per-layer
// metrics of a traced one. Every declared per-layer metric is present;
// one that the workload's layers never produced (a bypassed layer, an
// absent counter) reads 0 here and is listed under "missing" in the
// result file.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

func newContractLine(res WorkloadResult, traced bool, perLayer []MetricSpec) contractLine {
	line := contractLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]contractValue{}}
	if traced {
		for _, m := range perLayer {
			line.Metrics[m.Name] = contractValue{res.PerLayer[m.Name], m.Unit}
		}
		return line
	}
	for _, m := range endToEndSpecs {
		line.Metrics[m.Name] = contractValue{res.EndToEnd[m.Name].Median, m.Unit}
	}
	return line
}
