package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. All spans of one run or
// request share a Trace ID; Parent is the enclosing span's ID, or -1.
// Start and End are nanoseconds since the tracer was created.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op returning -1.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(trace uint64, parent int32, name string) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{Trace: trace, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Record adds an already-timed span and returns its ID.
func (t *Tracer) Record(trace uint64, parent int32, name string, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
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

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (t *Tracer) encode(f io.Writer) error {
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return w.Flush()
}

// SpanStat aggregates the spans of one name.
type SpanStat struct {
	Count int
	Total time.Duration // summed span durations
	Self  time.Duration // summed durations minus each span's children
	Durs  samples       // each span's duration, in ms
}

// MeanSelfUS is the mean self time in microseconds.
func (s *SpanStat) MeanSelfUS() float64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	return float64(s.Self) / float64(s.Count) / 1e3
}

// Aggregate folds spans into per-name statistics. A span's self time is
// its duration minus the durations of its direct children; unclosed
// spans are skipped.
func Aggregate(spans []Span) map[string]*SpanStat {
	child := make(map[int32]time.Duration)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	out := make(map[string]*SpanStat)
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &SpanStat{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.Count++
		st.Total += d
		st.Self += d - child[s.ID]
		st.Durs.add(d)
	}
	return out
}
