package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer of the program: its name (the layer
// is the part before the first '.'), what it worked on, host start and end
// relative to the tracer's origin, and the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs go through the same code with no spans.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id; end
// closes it. Both are safe for concurrent use.
func (t *tracer) begin(parent int, name, detail string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Detail: detail, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span that has already ended.
func (t *tracer) add(parent int, name, detail string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Detail: detail,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
}

// do runs f inside a span and returns f's error.
func (t *tracer) do(parent int, name, detail string, f func(id int) error) error {
	id := t.begin(parent, name, detail)
	defer t.end(id)
	return f(id)
}

// total sums the durations of the spans named name, in seconds, and counts
// them.
func (t *tracer) total(name string) (seconds float64, n int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
			n++
		}
	}
	return float64(ns) / 1e9, n
}

// mean is the mean duration of the spans named name, in seconds.
func (t *tracer) mean(name string) float64 {
	s, n := t.total(name)
	return s / float64(max(n, 1))
}

// selfTimes returns each layer's self time in seconds: every span's duration
// minus the part of its interval its children cover. Children that run in
// parallel can cover the same instant twice; the union is subtracted, so
// self time is never negative.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		covered := unionNs(children[s.ID])
		self[s.layer()] += float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// unionNs is the length of the union of the spans' intervals.
func unionNs(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total int64
	lo, hi := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > hi {
			total += hi - lo
			lo, hi = s.Start, s.End
		} else if s.End > hi {
			hi = s.End
		}
	}
	return total + hi - lo
}

// write stores the spans and the run's summary as one JSON document.
func (t *tracer) write(path string, st stamp, summary map[string]metric) error {
	t.mu.Lock()
	doc := struct {
		Stamp   stamp             `json:"stamp"`
		Summary map[string]metric `json:"summary"`
		Spans   []span            `json:"spans"`
	}{st, summary, t.spans}
	buf, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
