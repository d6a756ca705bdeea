package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one job
// share its job id as the request identifier; Parent names the span
// that caused this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced runs pay one nil check per boundary.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewID reserves a span id, so a span's children can name it before it
// ends. It returns 0 on a nil tracer.
func (t *Tracer) NewID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// Record stores a finished span under an id from NewID.
func (t *Tracer) Record(id, parent int64, name, job string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Job: job,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals
// (clipped to the parent, so overlapping or overhanging children are
// counted once).
func selfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur, curEnd := int64(-1), int64(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if cur < 0 || lo > curEnd {
				if cur >= 0 {
					covered += curEnd - cur
				}
				cur, curEnd = lo, hi
			} else if hi > curEnd {
				curEnd = hi
			}
		}
		if cur >= 0 {
			covered += curEnd - cur
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// spanSummary aggregates spans by name: count, total and self time.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func summarize(spans []Span) []spanSummary {
	self := selfTimes(spans)
	by := make(map[string]*spanSummary)
	var names []string
	for _, s := range spans {
		a, ok := by[s.Name]
		if !ok {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.Count++
		a.TotalMs += float64(s.End-s.Start) / 1e6
		a.SelfMs += float64(self[s.ID]) / 1e6
	}
	sort.Strings(names)
	out := make([]spanSummary, len(names))
	for i, n := range names {
		out[i] = *by[n]
	}
	return out
}

// writeTrace writes the spans and their per-name summary as JSON.
func writeTrace(path string, spans []Span) error {
	data, err := json.MarshalIndent(struct {
		Summary []spanSummary `json:"summary"`
		Spans   []Span        `json:"spans"`
	}{summarize(spans), spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
