package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded only
// by the harness, around its calls into a layer's public functions; spans of
// one request share a trace id, "<source>/<seq>" (DCID/tick on the DC-driven
// workloads).
type span struct {
	name   string
	source string
	seq    int64
	start  time.Duration // since the tracer was created
	end    time.Duration
	parent int // index of the span that caused this one; -1 for a root
}

// tracer keeps spans in memory until the run ends. A nil tracer is tracing
// switched off: every method is a no-op, so the timed loops call it
// unconditionally.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name, source string, seq int64, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, source: source, seq: seq, start: now, end: -1, parent: parent})
	idx := len(t.spans) - 1
	t.mu.Unlock()
	return idx
}

func (t *tracer) end(idx int) {
	if t == nil || idx < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[idx].end = now
	t.mu.Unlock()
}

// add records a span whose interval the caller measured itself.
func (t *tracer) add(name, source string, seq int64, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, source: source, seq: seq,
		start: start.Sub(t.t0), end: end.Sub(t.t0), parent: parent})
	t.mu.Unlock()
}

// durations groups the finished spans' durations by span name.
func (t *tracer) durations() map[string]*histogram { return t.byName(false) }

// selfTime is durations with, from each span, the part its direct children
// cover taken out.
func (t *tracer) selfTime() map[string]*histogram { return t.byName(true) }

func (t *tracer) byName(self bool) map[string]*histogram {
	out := map[string]*histogram{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]time.Duration, len(t.spans))
	if self {
		for _, s := range t.spans {
			if s.parent >= 0 && s.end >= s.start {
				covered[s.parent] += s.end - s.start
			}
		}
	}
	for i, s := range t.spans {
		if s.end < s.start {
			continue // never ended
		}
		h := out[s.name]
		if h == nil {
			h = &histogram{}
			out[s.name] = h
		}
		h.record(s.end - s.start - covered[i])
	}
	return out
}

// writeFile writes the spans as one JSON array to out/trace-<workload>.json.
func (t *tracer) writeFile(workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", fmt.Errorf("create %s: %w", outDir, err)
	}
	path := filepath.Join(outDir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	t.mu.Lock()
	w.WriteString("[\n")
	for i, s := range t.spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		w.WriteString(`{"name":`)
		w.WriteString(strconv.Quote(s.name))
		w.WriteString(`,"start_ns":`)
		w.WriteString(strconv.FormatInt(int64(s.start), 10))
		w.WriteString(`,"end_ns":`)
		w.WriteString(strconv.FormatInt(int64(s.end), 10))
		w.WriteString(`,"parent":`)
		w.WriteString(strconv.Itoa(s.parent))
		w.WriteString(`,"trace_id":`)
		w.WriteString(strconv.Quote(s.source + "/" + strconv.FormatInt(s.seq, 10)))
		w.WriteString("}")
	}
	w.WriteString("\n]\n")
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return "", fmt.Errorf("write span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close span file: %w", err)
	}
	return path, nil
}
