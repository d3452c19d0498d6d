package obs

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestCounterGaugeTimerBasics(t *testing.T) {
	m := New()
	c := m.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if m.Counter("c") != c {
		t.Error("same name returned a different counter")
	}

	g := m.Gauge("g")
	g.Set(7)
	g.Add(3)
	if got := g.Load(); got != 10 {
		t.Errorf("gauge = %d, want 10", got)
	}

	tm := m.Timer("t")
	tm.Observe(5 * time.Millisecond)
	sw := tm.Start()
	sw.Stop()
	st := tm.Stats()
	if st.Count != 2 {
		t.Errorf("timer count = %d, want 2", st.Count)
	}
	if st.Nanos < int64(5*time.Millisecond) {
		t.Errorf("timer nanos = %d, want >= 5ms", st.Nanos)
	}
}

func TestSnapshots(t *testing.T) {
	m := New()
	m.Counter("a").Add(1)
	m.Counter("b").Add(2)
	m.Gauge("g").Set(3)
	m.Timer("t").Observe(time.Microsecond)

	if got := m.Counters(); !reflect.DeepEqual(got, map[string]int64{"a": 1, "b": 2}) {
		t.Errorf("counters snapshot = %v", got)
	}
	if got := m.Gauges(); !reflect.DeepEqual(got, map[string]int64{"g": 3}) {
		t.Errorf("gauges snapshot = %v", got)
	}
	ts := m.Timers()
	if len(ts) != 1 || ts["t"].Count != 1 {
		t.Errorf("timers snapshot = %v", ts)
	}
	want := []string{"counter:a", "counter:b", "gauge:g", "timer:t"}
	if got := m.Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("names = %v, want %v", got, want)
	}
}

// TestNilSafety: every method on every type must be a no-op (not a panic)
// when observation is disabled — instrumented packages pass nil registries
// through unconditionally.
func TestNilSafety(t *testing.T) {
	var m *Metrics
	c := m.Counter("x")
	c.Add(1)
	c.Inc()
	if c != nil || c.Load() != 0 {
		t.Error("nil registry must yield nil counter loading 0")
	}
	g := m.Gauge("x")
	g.Set(1)
	g.Add(1)
	if g != nil || g.Load() != 0 {
		t.Error("nil registry must yield nil gauge loading 0")
	}
	tm := m.Timer("x")
	tm.Observe(time.Second)
	sw := tm.Start()
	sw.Stop()
	if tm.Stats() != (TimerStats{}) {
		t.Error("nil timer stats must be zero")
	}
	if m.Counters() != nil || m.Gauges() != nil || m.Timers() != nil || m.Names() != nil {
		t.Error("nil registry snapshots must be nil")
	}

	var tr *Trace
	s := tr.Start("x")
	if s != nil {
		t.Error("nil trace must yield nil span")
	}
	s.SetAttr("k", 1)
	s.End()
	if tr.Records() != nil {
		t.Error("nil trace records must be nil")
	}

	var r *RunReport
	r.AddTrace(nil) // appending nil records to a nil report must not panic
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("root")
	child := tr.Start("child")
	child.SetAttr("items", 12)
	child.End()
	root.End()
	open := tr.Start("open") // never ended: reported with duration so far
	_ = open

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Name != "root" || recs[1].Name != "child" || recs[2].Name != "open" {
		t.Errorf("record order: %v", recs)
	}
	if recs[1].Attrs["items"] != 12 {
		t.Errorf("child attrs = %v", recs[1].Attrs)
	}
	if recs[0].Nanos < recs[1].Nanos {
		t.Errorf("root (%d ns) should outlast child (%d ns)", recs[0].Nanos, recs[1].Nanos)
	}
	// Double End keeps the first duration.
	d := recs[1].Nanos
	time.Sleep(time.Millisecond)
	child.End()
	if got := tr.Records()[1].Nanos; got != d {
		t.Errorf("second End changed duration: %d -> %d", d, got)
	}
}

func TestDebugServer(t *testing.T) {
	m := New()
	m.Counter("hits").Add(3)
	ds, err := StartDebugServer("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	get := func(path string) string {
		resp, err := httpGet("http://" + ds.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}
	if body := get("/metrics"); !contains(body, `"hits": 3`) {
		t.Errorf("/metrics missing counter: %s", body)
	}
	if body := get("/debug/vars"); !contains(body, "memstats") {
		t.Errorf("/debug/vars missing memstats: %.100s", body)
	}
	if body := get("/debug/pprof/"); !contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ missing index: %.100s", body)
	}
	if err := ds.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if (*DebugServer)(nil).Close() != nil {
		t.Error("nil server close must be nil")
	}
}

// Names returns the sorted names of every registered instrument, prefixed
// by kind ("counter:", "gauge:", "timer:").
func (m *Metrics) Names() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.counters)+len(m.gauges)+len(m.timers))
	for n := range m.counters {
		out = append(out, "counter:"+n)
	}
	for n := range m.gauges {
		out = append(out, "gauge:"+n)
	}
	for n := range m.timers {
		out = append(out, "timer:"+n)
	}
	sort.Strings(out)
	return out
}
