// Package scenario promotes the examples/ pipelines into a declarative
// registry of end-to-end benchmark scenarios. A scenario is a small
// data definition — its kernel DAG as an ordered stage list, its
// simulator parameters, its acceptance check — plus a Build function
// that instantiates the stage closures over those parameters. New
// workloads are added as definitions, not as new driver code.
//
// Two executors run every pipeline (executor.go):
//
//   - RunStaged, the reference twin: run-to-completion per stage, every
//     intermediate fully materialized — the shape the examples/ demos
//     had, and the baseline end-to-end measurement.
//   - RunFused, the streaming executor: bounded channels between
//     stages, per-stage worker pools on warm scratch.Pool arenas,
//     backpressure instead of materialization, so stage N+1 starts
//     consuming while stage N is still producing.
//
// Both fold the final outputs (sorted into deterministic source order)
// through the same FNV-1a digest, so fused-vs-staged bit-identity is a
// differential test and a CI smoke check, and the fused speedup is a
// measured ratio (`scenario.fused_over_staged` in benchmark/), not a
// claim.
package scenario

import (
	"context"
	"fmt"
	"maps"
	"math"
	"sort"
	"sync"

	"repro/internal/digest"
	"repro/internal/scratch"
)

// Params holds a scenario's named simulator parameters. Definitions
// are data: everything a Build closure varies comes through here, so a
// new workload variant is a new Params map, not new code.
type Params map[string]float64

// Get returns the named parameter. A Build closure reads only what
// its Def.Params declares, so an absent name is a bug: it panics.
func (p Params) Get(name string) float64 {
	v, ok := p[name]
	if !ok {
		panic(fmt.Sprintf("scenario: parameter %q is not declared", name))
	}
	return v
}

// Int returns the named parameter rounded to int.
func (p Params) Int(name string) int { return int(math.Round(p.Get(name))) }

// Clone returns a copy of p that can be overridden without mutating
// the registered definition.
func (p Params) Clone() Params { return maps.Clone(p) }

// Worker is one stage worker's execution state: a warm arena drawn
// from the run's scratch.Pool slot plus optional typed per-worker
// state built by Stage.NewState (a phmm.Scratch, a dbg.Assembler).
// Both executors assign the same pool slots to the same stage/worker
// pair, so warm state carries across fused and staged runs alike.
type Worker struct {
	Arena *scratch.Arena
	// State is the pooled warm state (Stage.NewState), carried across
	// runs that share a scratch.Pool.
	State any
	// Local is fresh per run (Stage.NewLocal) — for stages whose state
	// accumulates within one stream and must not leak into the next
	// run (the region binner's open window).
	Local any
}

// Stage is one kernel stage of a scenario DAG. Fn receives one input
// value and emits zero or more outputs: emitting nothing filters the
// item (a region with too few haplotypes), emitting several expands it
// (a read batch into regions). Fn must be deterministic in its input
// and worker state — the executors prove this by digest.
type Stage struct {
	Name string
	// Workers is the stage's worker-pool width in the fused executor
	// and its dispatch width in the staged one. 0 means 1. Stages with
	// a Flush hook are forced to 1 (they carry order-dependent state).
	Workers int
	// NewState builds optional per-worker state, cached in the run's
	// scratch.Pool slot so repeated runs reuse warm buffers.
	NewState func() any
	// NewLocal builds optional per-worker state created fresh for
	// every run (never pooled).
	NewLocal func() any
	Fn       func(ctx context.Context, w *Worker, v any, emit func(any) error) error
	// Flush runs once after the stage's input is exhausted, for
	// streaming stages that hold a window open (the region binner).
	// Requires Workers <= 1 on this and every upstream stage, so the
	// arrival order its state depends on is deterministic.
	Flush func(ctx context.Context, w *Worker, emit func(any) error) error
}

// Pipeline is an instantiated scenario: a source plus the stage chain,
// with the digest fold and acceptance check over the final outputs.
type Pipeline struct {
	// Source emits the scenario's input items in deterministic order.
	// It must be re-invocable: each executor run replays it.
	Source func(ctx context.Context, emit func(any) error) error
	Stages []Stage
	// Fold writes one final output's stable encoding into the digest.
	Fold func(d *Digest, v any)
	// Accept validates the ordered final outputs (recall floors,
	// accuracy floors); nil accepts everything.
	Accept func(final []any) error
	// Summary renders a short human-facing line for example binaries.
	Summary func(final []any) string
}

func (p *Pipeline) validate() error {
	if p == nil {
		return fmt.Errorf("scenario: nil pipeline")
	}
	if p.Source == nil {
		return fmt.Errorf("scenario: pipeline has no source")
	}
	if len(p.Stages) == 0 {
		return fmt.Errorf("scenario: pipeline has no stages")
	}
	if p.Fold == nil {
		return fmt.Errorf("scenario: pipeline has no digest fold")
	}
	seen := map[string]bool{}
	for i := range p.Stages {
		st := &p.Stages[i]
		if st.Name == "" {
			return fmt.Errorf("scenario: stage %d has no name", i)
		}
		if seen[st.Name] {
			return fmt.Errorf("scenario: duplicate stage name %q", st.Name)
		}
		seen[st.Name] = true
		if st.Fn == nil {
			return fmt.Errorf("scenario: stage %q has no Fn", st.Name)
		}
		if st.Flush != nil {
			for j := 0; j <= i; j++ {
				if p.Stages[j].Workers > 1 {
					return fmt.Errorf("scenario: stage %q has a Flush hook but stage %q runs %d workers; stateful stages need single-worker upstream order",
						st.Name, p.Stages[j].Name, p.Stages[j].Workers)
				}
			}
		}
	}
	return nil
}

// StageNames returns the pipeline's stage names in DAG order.
func (p *Pipeline) StageNames() []string {
	out := make([]string, len(p.Stages))
	for i := range p.Stages {
		out[i] = p.Stages[i].Name
	}
	return out
}

// Def is one registered scenario: the declarative part (name, kernel
// DAG, simulator parameters) plus the Build function that closes the
// stage bodies over a parameter set.
type Def struct {
	Name  string
	Title string
	// Stages names the kernel DAG in order, source first. Build's
	// pipeline must match ("source" + stage names); the registry test
	// pins that the declaration and the construction agree.
	Stages []string
	// Params declares every parameter with its benchmark-scale default.
	Params Params
	// Build closes the stage bodies over Params overlaid with the
	// caller's overrides (demo or test scale); Register wraps it to
	// reject an override Params does not declare.
	Build func(overrides Params) (*Pipeline, error)
}

var (
	regMu sync.Mutex
	reg   = map[string]*Def{}
)

// Register adds a scenario definition; duplicate or malformed
// definitions panic at init time.
func Register(d *Def) {
	if d == nil || d.Name == "" || d.Build == nil || len(d.Stages) < 2 {
		panic("scenario: malformed definition")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[d.Name]; dup {
		panic("scenario: duplicate registration of " + d.Name)
	}
	build := d.Build
	d.Build = func(overrides Params) (*Pipeline, error) {
		p := d.Params.Clone()
		for name, v := range overrides {
			if _, ok := p[name]; !ok {
				return nil, fmt.Errorf("scenario %s: unknown parameter %q (declared, with defaults: %v)", d.Name, name, d.Params)
			}
			p[name] = v
		}
		return build(p)
	}
	reg[d.Name] = d
}

// Get returns the named definition or nil.
func Get(name string) *Def {
	regMu.Lock()
	defer regMu.Unlock()
	return reg[name]
}

// Names lists registered scenarios in sorted order.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(reg))
	for n := range reg {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Digest folds final outputs through internal/digest; scenario folds write
// every semantically meaningful field through the typed helpers so the
// encoding is unambiguous and platform-stable.
type Digest struct{ h uint64 }

func newDigest() *Digest { return &Digest{h: digest.Seed} }

// Bytes folds raw bytes.
func (d *Digest) Bytes(p []byte) { d.h = digest.Bytes(d.h, p) }

// U64 folds a fixed-width integer (little-endian byte order).
func (d *Digest) U64(v uint64) { d.h = digest.Word(d.h, v) }

// Int folds an int.
func (d *Digest) Int(v int) { d.U64(uint64(int64(v))) }

// F64 folds a float64 bit pattern — bit-identity, not approximate
// equality, is the contract.
func (d *Digest) F64(v float64) { d.U64(math.Float64bits(v)) }

// Bool folds a bool.
func (d *Digest) Bool(v bool) {
	if v {
		d.U64(1)
	} else {
		d.U64(0)
	}
}

// Sum returns the folded digest.
func (d *Digest) Sum() uint64 { return d.h }
