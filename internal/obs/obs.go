// Package obs is the instrumentation layer of the pipeline: lightweight
// counters, gauges and timers, a span-style trace recorder for pipeline
// stages, and a RunReport JSON artifact that the cmd tools emit with
// -report so that every performance and accuracy claim is backed by a
// machine-readable run record.
//
// Design constraints, in order:
//
//  1. Disabled must be free. Every instrumented package accepts a nil
//     *Metrics (or nil *Trace); every method on every type is a no-op on a
//     nil receiver, and instruments fetched from a nil registry are
//     themselves nil. Hot paths therefore pay one predictable nil test per
//     event and never call the clock when observation is off.
//  2. Enabled must be cheap. Counters and gauges are single atomic words;
//     instrument handles are resolved once (by name) outside hot loops and
//     used without further map lookups or allocation.
//  3. Concurrency-safe. All instruments may be updated from any number of
//     goroutines; snapshots are consistent per instrument.
//
// Metric naming convention: dot-separated "<subsystem>.<detail>" strings,
// e.g. "evalcache.hits", "search.candidates.coarse", "analyze.partition".
// The names emitted by this repository are documented in README.md's
// Observability section.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. A nil *Counter is a
// valid no-op instrument.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d. No-op on nil.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one. No-op on nil.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value; 0 on nil.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value instrument. A nil *Gauge is a valid no-op
// instrument.
type Gauge struct {
	v atomic.Int64
}

// Set records the current value. No-op on nil.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d. No-op on nil.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Load returns the current value; 0 on nil.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates durations: a count of observations and their total
// nanoseconds. A nil *Timer is a valid no-op instrument.
type Timer struct {
	count atomic.Int64
	nanos atomic.Int64
}

// Observe records one duration. No-op on nil.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.nanos.Add(int64(d))
}

// Stopwatch is an in-flight timing started by Timer.Start. The zero value
// (returned by a nil Timer) is a no-op.
type Stopwatch struct {
	t     *Timer
	start time.Time
}

// Start begins a stopwatch. On a nil Timer the zero Stopwatch is returned
// without reading the clock, so a disabled timing site costs one nil test.
func (t *Timer) Start() Stopwatch {
	if t == nil {
		return Stopwatch{}
	}
	return Stopwatch{t: t, start: time.Now()}
}

// Stop records the elapsed time since Start. No-op on the zero Stopwatch.
func (sw Stopwatch) Stop() {
	if sw.t == nil {
		return
	}
	sw.t.Observe(time.Since(sw.start))
}

// TimerStats is a snapshot of one timer.
type TimerStats struct {
	Count int64 `json:"count"`
	Nanos int64 `json:"nanos"`
}

// Stats returns a snapshot; zero on nil.
func (t *Timer) Stats() TimerStats {
	if t == nil {
		return TimerStats{}
	}
	return TimerStats{Count: t.count.Load(), Nanos: t.nanos.Load()}
}

// Metrics is a registry of named instruments. The zero value is not usable;
// construct with New. A nil *Metrics means "observation disabled": every
// method returns a nil instrument (itself a no-op), so instrumented code
// needs no enabled/disabled branches beyond passing the pointer through.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// New creates an empty metrics registry.
func New() *Metrics {
	return &Metrics{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
	}
}

// Counter returns the counter with the given name, creating it on first
// use. Returns nil on a nil registry.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// Returns nil on a nil registry.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Timer returns the timer with the given name, creating it on first use.
// Returns nil on a nil registry.
func (m *Metrics) Timer(name string) *Timer {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.timers[name]
	if !ok {
		t = &Timer{}
		m.timers[name] = t
	}
	return t
}

// Counters returns a name→value snapshot of every counter. Nil registry
// yields nil.
func (m *Metrics) Counters() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.counters))
	for n, c := range m.counters {
		out[n] = c.Load()
	}
	return out
}

// Gauges returns a name→value snapshot of every gauge. Nil registry yields
// nil.
func (m *Metrics) Gauges() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.gauges))
	for n, g := range m.gauges {
		out[n] = g.Load()
	}
	return out
}

// Timers returns a name→stats snapshot of every timer. Nil registry yields
// nil.
func (m *Metrics) Timers() map[string]TimerStats {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]TimerStats, len(m.timers))
	for n, t := range m.timers {
		out[n] = t.Stats()
	}
	return out
}
