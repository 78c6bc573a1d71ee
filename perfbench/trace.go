package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call across a layer boundary, timed from the benchmark's
// own code. Parent indexes the span that caused it (-1 for a root).
// Counts holds layer counters read at the span's boundaries.
type span struct {
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Parent int              `json:"parent"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans and counts in memory until the run ends. It is
// used from one goroutine; spans timed on other goroutines are stored
// by the workload in per-job slots and added after the workers stop.
// A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string]int64)}
}

// now returns nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: t.now(), End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t != nil && id >= 0 {
		t.spans[id].End = t.now()
	}
}

// endCounts closes the span and attaches counters read at its end.
func (t *tracer) endCounts(id int, counts map[string]int64) {
	if t != nil && id >= 0 {
		t.spans[id].End = t.now()
		t.spans[id].Counts = counts
	}
}

// add appends a finished span and returns its index.
func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// count adds n to a named counter.
func (t *tracer) count(name string, n int64) {
	if t != nil {
		t.counts[name] += n
	}
}

// graft appends spans recorded by another process whose clock started
// offset nanoseconds after this tracer's, under the given parent.
func (t *tracer) graft(spans []span, offset int64, parent int) {
	base := len(t.spans)
	for _, s := range spans {
		s.Start += offset
		s.End += offset
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// write stores the run description, the result metrics, the counters
// and every span as one JSON file.
func (t *tracer) write(path string, info runInfo, metrics map[string]metricValue) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Run     runInfo                `json:"run"`
		Metrics map[string]metricValue `json:"metrics"`
		Counts  map[string]int64       `json:"counts"`
		Spans   []span                 `json:"spans"`
	}{info, metrics, t.counts, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
