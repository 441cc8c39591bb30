package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one benchmark-side interval around a public call into a
// layer. Parent is the ID of the span that caused it (0 for a root);
// spans of one traced pass share Workload and Pass.
type Span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Pass     int     `json:"pass"`
	StartS   float64 `json:"start_s"`
	EndS     float64 `json:"end_s"`
}

// Recorder keeps spans in memory until the benchmark ends. A nil
// *Recorder records nothing, which is how the timed passes run: the
// same pass code, no spans.
type Recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	pass     int
	spans    []Span
}

func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Scope sets the workload and pass ID stamped on spans started next.
func (r *Recorder) Scope(workload string, pass int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.workload, r.pass = workload, pass
	r.mu.Unlock()
}

// Start opens a span under parent and returns its ID (0 when r is nil).
func (r *Recorder) Start(parent int, name string) int {
	return r.StartAt(parent, name, time.Now())
}

// StartAt is Start with an explicit start time, for spans whose start
// was observed before the recorder could be called.
func (r *Recorder) StartAt(parent int, name string, at time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{
		ID: id, Parent: parent, Name: name, Workload: r.workload, Pass: r.pass,
		StartS: at.Sub(r.epoch).Seconds(), EndS: -1,
	})
	return id
}

// End closes the span and returns its duration in seconds.
func (r *Recorder) End(id int) float64 { return r.EndAt(id, time.Now()) }

func (r *Recorder) EndAt(id int, at time.Time) float64 {
	if r == nil || id == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndS = at.Sub(r.epoch).Seconds()
	return s.EndS - s.StartS
}

func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// SelfTimes returns, per span ID, the span's duration minus the part
// of its interval that its direct children cover. Children may overlap
// each other (parallel stage workers) or overhang the parent; the
// union of their intervals, clipped to the parent, is what is
// subtracted, so overlapping children are not counted twice.
func SelfTimes(spans []Span) map[int]float64 {
	children := map[int][]Span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]float64, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartS < kids[j].StartS })
		covered, reach := 0.0, p.StartS
		for _, k := range kids {
			lo, hi := k.StartS, k.EndS
			if lo < reach {
				lo = reach
			}
			if hi > p.EndS {
				hi = p.EndS
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[p.ID] = (p.EndS - p.StartS) - covered
	}
	return self
}

// WriteSpans writes one JSON object per line, each with its self time.
func WriteSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := SelfTimes(spans)
	for _, s := range spans {
		line := struct {
			Span
			SelfS float64 `json:"self_s"`
		}{s, self[s.ID]}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
