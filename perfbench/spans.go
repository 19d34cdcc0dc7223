package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of a traced run in memory until the run ends.
// Spans are recorded only by the benchmark's own code, around its calls
// into the program's public functions. A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []*span
}

// span is one timed call. Spans of one session share Session; Parent is
// the span that caused this one (0 for a root).
type span struct {
	tr      *tracer
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Session uint64 `json:"session"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span; parent may be nil.
func (tr *tracer) begin(name string, parent *span, session uint64) *span {
	if tr == nil {
		return nil
	}
	s := &span{tr: tr, ID: tr.next.Add(1), Session: session, Name: name, Start: int64(time.Since(tr.t0))}
	if parent != nil {
		s.Parent = parent.ID
	}
	return s
}

// finish closes the span and keeps it.
func (s *span) finish() {
	if s == nil {
		return
	}
	s.End = int64(time.Since(s.tr.t0))
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s)
	s.tr.mu.Unlock()
}

// durations returns the durations, in ms, of the kept spans named name.
func (tr *tracer) durations(name string) []float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its children, in ms.
func (tr *tracer) selfTimes() map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	children := make(map[uint64][]*span)
	for _, s := range tr.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range tr.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// write stores every kept span as JSON at path.
func (tr *tracer) write(path string) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
