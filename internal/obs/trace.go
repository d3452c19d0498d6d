package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is a span-style recorder for pipeline stages: a flat, ordered list
// of named intervals with optional integer attributes. It
// is deliberately not a distributed-tracing client — spans live in memory
// and are emitted into the RunReport artifact.
//
// A nil *Trace disables recording: Start returns a nil *Span, whose methods
// are all no-ops, so instrumented stages need no enabled/disabled branches.
type Trace struct {
	mu    sync.Mutex
	spans []*Span
	seq   atomic.Int64
}

// NewTrace creates an empty trace recorder.
func NewTrace() *Trace { return &Trace{} }

// Span is one recorded interval. Create with Trace.Start; close with End.
type Span struct {
	id    int64
	name  string
	start time.Time
	mu    sync.Mutex
	dur   time.Duration
	ended bool
	attrs map[string]int64
}

// Start opens a root span. Returns nil on a nil trace.
func (tr *Trace) Start(name string) *Span {
	if tr == nil {
		return nil
	}
	s := &Span{id: tr.seq.Add(1), name: name, start: time.Now()}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	return s
}

// SetAttr attaches an integer attribute to the span. No-op on nil.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]int64{}
	}
	s.attrs[key] = v
	s.mu.Unlock()
}

// End closes the span, recording its duration. Ending twice keeps the first
// duration. No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// SpanRecord is the JSON form of one finished span.
type SpanRecord struct {
	ID    int64            `json:"id"`
	Name  string           `json:"name"`
	Start int64            `json:"startNanos"` // relative to the trace's first span
	Nanos int64            `json:"nanos"`
	Attrs map[string]int64 `json:"attrs,omitempty"`
}

// Records snapshots every span in start order. Open spans are reported with
// their duration so far. Nil trace yields nil.
func (tr *Trace) Records() []SpanRecord {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	spans := append([]*Span(nil), tr.spans...)
	tr.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	epoch := spans[0].start
	out := make([]SpanRecord, len(spans))
	for i, s := range spans {
		s.mu.Lock()
		dur := s.dur
		if !s.ended {
			dur = time.Since(s.start)
		}
		var attrs map[string]int64
		if len(s.attrs) > 0 {
			attrs = make(map[string]int64, len(s.attrs))
			for k, v := range s.attrs {
				attrs[k] = v
			}
		}
		s.mu.Unlock()
		out[i] = SpanRecord{
			ID:    s.id,
			Name:  s.name,
			Start: int64(s.start.Sub(epoch)),
			Nanos: int64(dur),
			Attrs: attrs,
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
