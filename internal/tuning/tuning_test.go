package tuning

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestResolveAllIgnoresEnvironment pins that the dispatch constants are
// constants: the variables that once forced, froze or cached them
// change nothing and write nothing, and the table names exactly the
// tuning.* rows BENCHMARK.json declares.
func TestResolveAllIgnoresEnvironment(t *testing.T) {
	dir := t.TempDir()
	env := map[string]string{
		"GBENCH_TUNE":                     "off",
		"GBENCH_TUNE_FMINDEX_BATCH_WIDTH": "3",
		"GBENCH_TUNE_CACHE_DIR":           dir,
	}
	for k := range env {
		t.Setenv(k, "")
		os.Unsetenv(k)
	}
	want := ResolveAll()
	for k, v := range env {
		t.Setenv(k, v)
	}
	if got := ResolveAll(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ResolveAll under the environment = %v, want %v", got, want)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("cache dir holds %d entries (err %v), want none", len(entries), err)
	}

	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, m := range spec.PerLayer {
		if n, ok := strings.CutPrefix(m.Name, "tuning."); ok && n != "resolve_s" {
			declared = append(declared, n)
		}
	}
	var names []string
	for _, r := range want {
		names = append(names, r.Name)
	}
	if len(declared) != 6 || !reflect.DeepEqual(names, declared) {
		t.Fatalf("ResolveAll names %v, BENCHMARK.json declares %v; want the same six", names, declared)
	}
}
