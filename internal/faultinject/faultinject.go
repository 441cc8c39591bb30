// Package faultinject implements seeded, deterministic fault injection
// for the suite driver: a Plan parsed from a compact spec string can
// arm panic/delay/error trip-points inside kernel task loops and
// disrupt shard workers at shard boundaries. It exists to prove — in
// tests and via `gbench -faults` — that the runner degrades gracefully
// when a kernel misbehaves.
//
// The plan grammar is a comma-separated list of fault clauses:
//
//	kind:site[:param]
//
//	panic:poa:0.5        panic at matching trip-points with probability 0.5
//	delay:chain:200ms    sleep 200ms (context-aware) at matching trip-points
//	error:fmi:1.0        return an InjectedError from matching trip-points
//	killworker:w1:1.0    shard worker abandons everything and dies
//	slowshard:w2:400ms   shard worker stalls before executing a shard
//	dropconn:w3:0.5      shard worker drops its coordinator connection
//
// The last three are shard-fabric faults evaluated by worker processes
// at shard boundaries (see internal/shard); their labels are
// "workerID/kernel", so a site of "w1" targets one worker and a site
// of "spoa" targets every worker's shards of one kernel.
//
// A site matches a trip-point if it equals or is contained in the
// kernel label the trip-point's context carries (so `panic:poa` hits
// the kernel registered as "spoa"), and "*" matches everything. All
// randomness derives from the plan seed, so a given plan injects the
// same faults run after run.
package faultinject

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/digest"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// Kind enumerates the fault kinds.
type Kind uint8

// Fault kinds. The first three arm trip-points (Point); the last three
// disrupt shard workers (ShardFault).
const (
	KindPanic Kind = iota
	KindDelay
	KindError
	KindKillWorker
	KindSlowShard
	KindDropConn
)

var kindNames = map[string]Kind{
	"panic": KindPanic, "delay": KindDelay, "error": KindError,
	"killworker": KindKillWorker, "slowshard": KindSlowShard, "dropconn": KindDropConn,
}

func (k Kind) String() string {
	for name, kk := range kindNames {
		if kk == k {
			return name
		}
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Fault is one armed fault clause.
type Fault struct {
	Kind  Kind
	Site  string
	Prob  float64       // panic/error/killworker/dropconn: per-evaluation
	Delay time.Duration // delay/slowshard
}

// Plan is a parsed, seeded fault plan. A Plan is safe for concurrent
// use by trip-points on multiple workers.
type Plan struct {
	Seed   int64
	Faults []Fault
	// Per-fault evaluation counters: the nth evaluation of fault i
	// fires iff hash(seed, i, n) < prob, which makes the fired set a
	// pure function of the plan regardless of worker scheduling.
	evals []atomic.Uint64
	// Per-fault trip counters: how many evaluations actually fired
	// (panicked, errored, slept, killed or dropped). Armed-vs-tripped
	// is what observability reports surface.
	trips []atomic.Uint64
}

// FaultStat is one clause's armed-vs-tripped accounting.
type FaultStat struct {
	Clause  string // the clause in spec form, e.g. "panic:spoa:0.5"
	Kind    Kind
	Site    string
	Evals   uint64 // times the clause was evaluated at a matching site
	Tripped uint64 // times it actually fired
}

// Stats reports per-clause evaluation and trip counts accumulated
// since the plan was parsed. Nil-safe (returns nil).
func (p *Plan) Stats() []FaultStat {
	if p == nil {
		return nil
	}
	out := make([]FaultStat, len(p.Faults))
	for i := range p.Faults {
		out[i] = FaultStat{
			Clause:  clauseString(&p.Faults[i]),
			Kind:    p.Faults[i].Kind,
			Site:    p.Faults[i].Site,
			Evals:   p.evals[i].Load(),
			Tripped: p.trips[i].Load(),
		}
	}
	return out
}

// Parse builds a Plan from a spec string. An empty spec yields a nil
// plan (nothing armed).
func Parse(spec string, seed int64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: seed}
	for _, clause := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(clause), ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("faultinject: bad clause %q (want kind:site[:param])", clause)
		}
		kind, ok := kindNames[parts[0]]
		if !ok {
			return nil, fmt.Errorf("faultinject: unknown fault kind %q in %q", parts[0], clause)
		}
		site := parts[1]
		if site == "" {
			return nil, fmt.Errorf("faultinject: empty site in %q", clause)
		}
		f := Fault{Kind: kind, Site: site}
		param := ""
		if len(parts) == 3 {
			param = parts[2]
		}
		var err error
		switch kind {
		case KindPanic, KindError, KindKillWorker, KindDropConn:
			f.Prob = 1.0
			if param != "" {
				f.Prob, err = strconv.ParseFloat(param, 64)
			}
		case KindDelay, KindSlowShard:
			f.Delay = 100 * time.Millisecond
			if param != "" {
				f.Delay, err = time.ParseDuration(param)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("faultinject: bad parameter %q in %q: %v", param, clause, err)
		}
		if f.Prob < 0 || f.Prob > 1 {
			return nil, fmt.Errorf("faultinject: probability %v out of [0,1] in %q", f.Prob, clause)
		}
		if f.Delay < 0 {
			return nil, fmt.Errorf("faultinject: negative parameter in %q", clause)
		}
		p.Faults = append(p.Faults, f)
	}
	p.evals = make([]atomic.Uint64, len(p.Faults))
	p.trips = make([]atomic.Uint64, len(p.Faults))
	return p, nil
}

// clauseString renders one fault back into spec form.
func clauseString(f *Fault) string {
	switch f.Kind {
	case KindDelay, KindSlowShard:
		return fmt.Sprintf("%s:%s:%s", f.Kind, f.Site, f.Delay)
	default: // panic, error, killworker, dropconn
		return fmt.Sprintf("%s:%s:%g", f.Kind, f.Site, f.Prob)
	}
}

// String renders the plan back into spec form.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	clauses := make([]string, len(p.Faults))
	for i := range p.Faults {
		clauses[i] = clauseString(&p.Faults[i])
	}
	return strings.Join(clauses, ",")
}

func (f *Fault) matches(label string) bool {
	if f.Site == "*" {
		return true
	}
	return label != "" && (f.Site == label || strings.Contains(label, f.Site))
}

// fire decides deterministically whether evaluation n of fault i
// fires, updating the clause's eval and trip counters.
func (p *Plan) fire(i int, prob float64) bool {
	n := p.evals[i].Add(1) - 1
	fired := false
	switch {
	case prob >= 1:
		fired = true
	case prob <= 0:
		fired = false
	default:
		u := digest.Mix64(uint64(p.Seed)*0x9e3779b97f4a7c15 ^ uint64(i)<<32 ^ n)
		fired = float64(u>>11)/(1<<53) < prob
	}
	if fired {
		p.trips[i].Add(1)
	}
	return fired
}

// ---- global arming ----

var armed atomic.Pointer[Plan]

// Arm installs p as the process-wide active plan (nil disarms). Each
// trip-point matches the plan against the kernel label its context
// carries (obs.WithLabel), so one armed plan targets faults at one
// kernel however many run at once.
func Arm(p *Plan) {
	if p != nil && len(p.Faults) == 0 {
		p = nil
	}
	armed.Store(p)
}

// Disarm removes the active plan.
func Disarm() { armed.Store(nil) }

// Armed reports the active plan (nil when disarmed).
func Armed() *Plan { return armed.Load() }

// InjectedPanic is the value thrown by panic faults, so tests and
// error reports can tell an injected panic from a genuine bug.
type InjectedPanic struct {
	Site  string // the fault clause's site
	Label string // the label that matched
}

func (p *InjectedPanic) String() string {
	return fmt.Sprintf("faultinject: injected panic (site %q, kernel %q)", p.Site, p.Label)
}

// InjectedError is returned from trip-points by error faults.
type InjectedError struct {
	Site  string
	Label string
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected error (site %q, kernel %q)", e.Site, e.Label)
}

// Point is the trip-point kernels place inside their task loops. When
// no plan is armed it is a single atomic load. With a plan armed it
// evaluates every fault matching ctx's kernel label (obs.Label): delay
// faults sleep (context-aware, returning ctx.Err() when cancelled
// mid-sleep), panic faults panic with an *InjectedPanic, and error
// faults return an *InjectedError.
func Point(ctx context.Context) error {
	p := armed.Load()
	if p == nil {
		return nil
	}
	return p.PointAt(ctx, obs.Label(ctx))
}

// PointAt evaluates p's trip-point faults against an explicit label,
// bypassing the process-global armed plan. Shard workers use it:
// several in-process workers can each hold their own plan and evaluate
// it under their own "workerID/kernel" label. Nil-safe.
func (p *Plan) PointAt(ctx context.Context, lbl string) error {
	if p == nil {
		return nil
	}
	for i := range p.Faults {
		f := &p.Faults[i]
		if !f.matches(lbl) {
			continue
		}
		switch f.Kind {
		case KindDelay:
			p.evals[i].Add(1)
			p.trips[i].Add(1) // a delay fault fires on every matching evaluation
			if err := resilience.Sleep(ctx, f.Delay); err != nil {
				return err
			}
		case KindPanic:
			if p.fire(i, f.Prob) {
				panic(&InjectedPanic{Site: f.Site, Label: lbl})
			}
		case KindError:
			if p.fire(i, f.Prob) {
				return &InjectedError{Site: f.Site, Label: lbl}
			}
		}
	}
	return nil
}

// ShardDisruption is the outcome of evaluating a plan's shard-fabric
// faults at a shard boundary.
type ShardDisruption struct {
	Kill bool // killworker fired: the worker must abandon everything and die
	Drop bool // dropconn fired: the worker must drop its coordinator connection
}

// ShardFault evaluates the shard-fabric fault kinds (killworker,
// slowshard, dropconn) against the label, in clause order. A matching
// slowshard clause sleeps context-aware before the decision is
// returned; a cancelled sleep returns the context error. Kill and Drop
// report whether a killworker or dropconn clause fired. Nil-safe.
func (p *Plan) ShardFault(ctx context.Context, lbl string) (ShardDisruption, error) {
	var d ShardDisruption
	if p == nil {
		return d, nil
	}
	for i := range p.Faults {
		f := &p.Faults[i]
		if !f.matches(lbl) {
			continue
		}
		switch f.Kind {
		case KindSlowShard:
			p.evals[i].Add(1)
			p.trips[i].Add(1) // a slowshard fault fires on every matching evaluation
			if err := resilience.Sleep(ctx, f.Delay); err != nil {
				return d, err
			}
		case KindKillWorker:
			if p.fire(i, f.Prob) {
				d.Kill = true
			}
		case KindDropConn:
			if p.fire(i, f.Prob) {
				d.Drop = true
			}
		}
	}
	return d, nil
}
