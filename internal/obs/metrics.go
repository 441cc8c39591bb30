package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. Metric handles are created on first
// use and cached by (name, label); recording through a handle is
// lock-free (atomics only), so hot loops can record without contention
// beyond the cache-coherence cost of the shared words themselves.
// A nil *Registry hands out nil handles, which accept all calls.
type Registry struct {
	mu         sync.Mutex
	counters   map[metricKey]*Counter
	gauges     map[metricKey]*Gauge
	histograms map[metricKey]*Histogram
}

type metricKey struct{ name, label string }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[metricKey]*Counter),
		gauges:     make(map[metricKey]*Gauge),
		histograms: make(map[metricKey]*Histogram),
	}
}

// Counter returns the counter for (name, label), creating it on first
// use. Safe for concurrent use; nil-safe.
func (r *Registry) Counter(name, label string) *Counter {
	if r == nil {
		return nil
	}
	k := metricKey{name, label}
	r.mu.Lock()
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	r.mu.Unlock()
	return c
}

// Gauge returns the gauge for (name, label), creating it on first use.
func (r *Registry) Gauge(name, label string) *Gauge {
	if r == nil {
		return nil
	}
	k := metricKey{name, label}
	r.mu.Lock()
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	r.mu.Unlock()
	return g
}

// Histogram returns the histogram for (name, label), creating it on
// first use with the given unit (the unit is fixed at creation).
func (r *Registry) Histogram(name, label, unit string) *Histogram {
	if r == nil {
		return nil
	}
	k := metricKey{name, label}
	r.mu.Lock()
	h := r.histograms[k]
	if h == nil {
		h = newHistogram(unit)
		r.histograms[k] = h
	}
	r.mu.Unlock()
	return h
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter. Nil-safe (returns 0).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float64.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the gauge. Nil-safe (returns 0).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket geometry: bucket 0 catches v < 1 (including zero
// and negatives); above that, each power-of-two octave is split into
// histSubBuckets linear sub-buckets, covering 1 up to 2^histOctaves.
// With 4 sub-buckets per octave the relative quantile error is bounded
// by the sub-bucket width, ~12.5%. The whole histogram is a fixed
// ~2 KB of atomics — no allocation per observation.
const (
	histSubBuckets = 4
	histOctaves    = 56 // 2^56 ns ≈ 2.3 years; also covers byte sizes
	histBuckets    = 1 + histOctaves*histSubBuckets
)

// Histogram is a log-scale distribution with lock-free recording.
// Suited to latencies (nanoseconds) and sizes (bytes) whose values
// span many orders of magnitude.
type Histogram struct {
	unit    string
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
	min     atomic.Uint64 // float64 bits
	max     atomic.Uint64 // float64 bits
	buckets [histBuckets]atomic.Uint64
}

func newHistogram(unit string) *Histogram {
	h := &Histogram{unit: unit}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v float64) int {
	if !(v >= 1) { // catches v<1, zero, negatives, NaN
		return 0
	}
	if v >= math.Ldexp(1, histOctaves) { // also catches +Inf, whose Log2 would overflow int
		return histBuckets - 1
	}
	e := int(math.Floor(math.Log2(v)))
	if e >= histOctaves {
		return histBuckets - 1
	}
	lo := math.Ldexp(1, e) // 2^e
	sub := int((v - lo) / lo * histSubBuckets)
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	return 1 + e*histSubBuckets + sub
}

// bucketBounds returns the [lo, hi) value range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i <= 0 {
		return 0, 1
	}
	i--
	e := i / histSubBuckets
	sub := i % histSubBuckets
	base := math.Ldexp(1, e)
	step := base / histSubBuckets
	return base + float64(sub)*step, base + float64(sub+1)*step
}

// Observe records one value. Nil-safe; lock-free.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count reports the number of observations. Nil-safe.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the total of all observed values. Nil-safe.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Min reports the smallest observation (0 when empty). Nil-safe.
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.min.Load())
}

// Max reports the largest observation (0 when empty). Nil-safe.
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile estimates the q-quantile (q in [0,1]) by walking the
// buckets and interpolating linearly inside the target bucket. The
// estimate is exact at the extremes (tracked min/max) and within one
// sub-bucket width (~12.5% relative) elsewhere. Nil-safe.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i < histBuckets; i++ {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bucketBounds(i)
			if mn := h.Min(); lo < mn {
				lo = mn
			}
			if mx := h.Max(); hi > mx {
				hi = mx
			}
			if hi < lo {
				hi = lo
			}
			frac := (rank - cum) / n
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.Max()
}

// MetricSnapshot is one metric's exported state, shaped for NDJSON.
// Exactly one of Value (counter), Gauge (gauge) or the histogram
// fields is meaningful, selected by Kind.
type MetricSnapshot struct {
	Type  string  `json:"type"` // always "metric"
	Kind  string  `json:"kind"` // counter | gauge | histogram
	Name  string  `json:"name"`
	Label string  `json:"label,omitempty"`
	Value float64 `json:"value,omitempty"` // counter total or gauge value
	// Histogram-only fields.
	Unit  string  `json:"unit,omitempty"`
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Snapshot exports every metric, sorted by (kind, name, label) so the
// output is deterministic. Nil-safe (returns nil).
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricSnapshot, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for k, c := range r.counters {
		out = append(out, MetricSnapshot{
			Type: "metric", Kind: "counter", Name: k.name, Label: k.label,
			Value: float64(c.Value()),
		})
	}
	for k, g := range r.gauges {
		out = append(out, MetricSnapshot{
			Type: "metric", Kind: "gauge", Name: k.name, Label: k.label,
			Value: g.Value(),
		})
	}
	for k, h := range r.histograms {
		out = append(out, MetricSnapshot{
			Type: "metric", Kind: "histogram", Name: k.name, Label: k.label,
			Unit: h.unit, Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Label < out[j].Label
	})
	return out
}
