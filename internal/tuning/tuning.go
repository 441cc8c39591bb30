// Package tuning turns hardcoded performance heuristics into
// measured-at-startup decisions. A kernel that needs a cutover
// constant (the pileup packed-counting run-length threshold, the poa
// lanes-vs-scalar work floor) declares an Int with a default and a
// microprobe; the first Get runs the probe once on the live host and
// caches the answer for the process. What motivated this: the
// pileup packed-vs-scalar speedup drifted across PRs partly because a
// cutover tuned on one host class was wrong for another.
//
// Resolution order for a tunable named "pileup.word_run_min":
//
//  1. an explicit Set (tests pin dispatch deterministically),
//  2. the GBENCH_TUNE_PILEUP_WORD_RUN_MIN environment variable,
//  3. GBENCH_TUNE=off, which freezes every tunable at its default
//     (hermetic runs, probe-free CI steps),
//  4. the on-disk probe cache, keyed by host class (persist.go;
//     GBENCH_TUNE_NOCACHE=1 skips it),
//  5. the probe, run once, clamped to [Min, Max], and persisted.
//
// Probes must not call their own Get (the sync.Once would deadlock);
// they time forced code paths directly with BestNs.
package tuning

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Profile identifies the host class a measured value applies to; the
// on-disk probe cache is keyed by it.
type Profile struct {
	OS     string
	Arch   string
	NumCPU int
}

// Host returns the running host's profile.
func Host() Profile {
	return Profile{OS: runtime.GOOS, Arch: runtime.GOARCH, NumCPU: runtime.NumCPU()}
}

// Key renders the profile as a compact stable string, e.g.
// "linux/amd64/c1".
func (p Profile) Key() string {
	return fmt.Sprintf("%s/%s/c%d", p.OS, p.Arch, p.NumCPU)
}

// Int is one lazily-probed integer tunable.
type Int struct {
	name     string
	def      int
	min, max int
	probe    func() int

	mu       sync.Mutex
	resolved bool
	v        int
}

var (
	registryMu sync.Mutex
	registry   []*Int
)

// NewInt declares a tunable and registers it for ResolveAll. The probe
// may be nil (the default is used). Values from every source are
// clamped to [min, max].
func NewInt(name string, def, min, max int, probe func() int) *Int {
	if min > max {
		panic("tuning: min > max for " + name)
	}
	t := &Int{name: name, def: clamp(def, min, max), min: min, max: max, probe: probe}
	registryMu.Lock()
	registry = append(registry, t)
	registryMu.Unlock()
	return t
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Name returns the tunable's registered name.
func (t *Int) Name() string { return t.name }

// Get returns the resolved value, running the probe on first use.
func (t *Int) Get() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.resolved {
		t.v = t.resolveLocked()
		t.resolved = true
	}
	return t.v
}

func (t *Int) resolveLocked() int {
	if s := os.Getenv(envKey(t.name)); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			return clamp(n, t.min, t.max)
		}
	}
	if strings.EqualFold(os.Getenv("GBENCH_TUNE"), "off") || t.probe == nil {
		return t.def
	}
	if v, ok := cacheLookup(t.name); ok {
		return clamp(v, t.min, t.max)
	}
	v := clamp(t.probe(), t.min, t.max)
	cacheStore(t.name, v)
	return v
}

// Set pins the value (clamped), overriding any probe result, and
// returns a restore function that reinstates the previous state —
// the test-hook idiom: defer tunable.Set(0)().
func (t *Int) Set(v int) (restore func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	prevResolved, prev := t.resolved, t.v
	t.resolved, t.v = true, clamp(v, t.min, t.max)
	return func() {
		t.mu.Lock()
		t.resolved, t.v = prevResolved, prev
		t.mu.Unlock()
	}
}

// envKey maps "pileup.word_run_min" to GBENCH_TUNE_PILEUP_WORD_RUN_MIN.
func envKey(name string) string {
	s := strings.NewReplacer(".", "_", "-", "_", "/", "_").Replace(name)
	return "GBENCH_TUNE_" + strings.ToUpper(s)
}

// ResolveAll forces every registered tunable to resolve now. Long-lived
// entry points (benchmark/) call it at startup so probes run
// before any timed or latency-sensitive work; without it the first
// kernel call pays the probe inline.
func ResolveAll() []Resolved {
	registryMu.Lock()
	ts := append([]*Int(nil), registry...)
	registryMu.Unlock()
	out := make([]Resolved, 0, len(ts))
	for _, t := range ts {
		out = append(out, Resolved{Name: t.name, Value: t.Get()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Resolved is one tunable's settled value, for logging.
type Resolved struct {
	Name  string
	Value int
}

// BestNs times f (one unit of work per call) and returns the fastest
// observed per-call cost in nanoseconds: reps timed batches of iters
// calls each, minimum batch taken. Minimum-of-batches is the standard
// noise-robust estimator for microprobes — interference only ever adds
// time. Callers size iters so one batch stays in the microsecond range
// and the whole probe under a millisecond or two.
func BestNs(reps, iters int, f func()) float64 {
	if reps < 1 {
		reps = 1
	}
	if iters < 1 {
		iters = 1
	}
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / float64(iters)
}
