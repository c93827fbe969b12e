package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation
// share Op; a replayed layer call has the operation's root span as
// Parent.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent,omitempty"`
	Op      int           `json:"op"`
	Name    string        `json:"name"`
	Class   string        `json:"class,omitempty"` // e.g. "small" / "large"
	StartNs time.Duration `json:"startNs"`
	DurNs   time.Duration `json:"durNs"`
}

// tracer keeps spans in memory; write stores them when the run ends.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// op allocates an operation ID.
func (t *tracer) op() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// record stores a span that started at start and lasted d, returning its ID.
func (t *tracer) record(op, parent int, name, class string, start time.Time, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Class: class,
		StartNs: start.Sub(t.start), DurNs: d})
	return id
}

// timed runs f as a span and returns its duration.
func (t *tracer) timed(op, parent int, name, class string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	t.record(op, parent, name, class, start, d)
	return d
}

// durations returns the durations of every span with the given name and
// class ("" matches any class).
func (t *tracer) durations(name, class string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (class == "" || s.Class == class) {
			out = append(out, s.DurNs)
		}
	}
	return out
}

// write stores the spans as JSON lines and returns the file path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, f.Close()
}
