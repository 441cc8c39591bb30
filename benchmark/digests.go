package main

import (
	"encoding/json"
	"os"
)

// Manifest is the committed record of correct outputs for one seed:
// per workload, per operation, the scenario digest, the shard
// fingerprint or the kernel signature every pass must reproduce.
type Manifest struct {
	Seed      int64                        `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

const manifestPath = "benchmark/digests.json"

func readManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// expectFor returns the manifest's outputs for a workload, or nil when
// the run's seed is not the manifest's: then the first pass is the
// reference.
func (m *Manifest) expectFor(workload string, seed int64) map[string]string {
	if m == nil || m.Seed != seed {
		return nil
	}
	return m.Workloads[workload]
}
