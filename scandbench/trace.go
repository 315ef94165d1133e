package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one job share its
// id; Parent is the index of the enclosing span, or -1.
type span struct {
	JobID   uint64         `json:"job_id"`
	Name    string         `json:"name"`
	Parent  int            `json:"parent"`
	StartNs int64          `json:"start_ns"`
	EndNs   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	index   int
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(jobID uint64, name string, parent *span) *span {
	if t == nil {
		return &span{}
	}
	s := &span{JobID: jobID, Name: name, Parent: -1, StartNs: int64(time.Since(t.t0))}
	if parent != nil {
		s.Parent = parent.index
	}
	t.mu.Lock()
	s.index = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.EndNs = int64(time.Since(t.t0))
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span name's total self time in ms: its duration
// minus the part its children cover (children never overlap here).
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.Name] += float64(s.EndNs-s.StartNs-child[i]) / 1e6
	}
	return out
}
