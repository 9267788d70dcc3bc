package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/steady"
)

// span is one timed call into a layer. Spans of one op share Op;
// Parent is the span that caused this one (0 for an op's root).
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Op     int64              `json:"op"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Stats  *steady.SolveStats `json:"stats,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: clients and the server's handler goroutines record
// into one tracer.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span; end records it.
type active struct {
	t     *tracer
	s     span
	start time.Time
}

func (t *tracer) begin(name string, parent, op int64) *active {
	return &active{
		t:     t,
		s:     span{ID: t.nextID.Add(1), Parent: parent, Op: op, Name: name},
		start: time.Now(),
	}
}

func (a *active) end() span { return a.endStats(nil) }

// endStats closes the span with the solver work it did attached.
func (a *active) endStats(st *steady.SolveStats) span {
	now := time.Now()
	a.s.Start = a.start.Sub(a.t.t0)
	a.s.End = now.Sub(a.t.t0)
	a.s.Stats = st
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, a.s)
	a.t.mu.Unlock()
	return a.s
}

// named returns the spans called name, in recording order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans called name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.named(name) {
		out = append(out, s.dur())
	}
	return out
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, s := range t.named(name) {
		sum += s.dur()
	}
	return sum
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
