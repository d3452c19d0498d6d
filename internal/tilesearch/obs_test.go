package tilesearch

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// deterministicCounters are the search metrics that must not depend on the
// parallelism level: candidate counts per phase, pruning decisions and the
// component-evaluation counts. Only the worker.* utilization family may
// vary.
var deterministicCounters = []string{
	"search.candidates.coarse",
	"search.candidates.frontier",
	"search.candidates.refine",
	"search.pruned",
	"evalcache.lookups",
	"evalcache.hits",
	"evalcache.misses",
	"evalcache.frame_evals",
}

// TestSearchMetricsParallelismInvariant: running the same search at -j 1 and
// -j 8 must produce identical totals for every deterministic counter and
// gauge, hits+misses must partition lookups on both sides, and no
// evaluation ever waits on another's, so coalesced stays 0 at -j 8 too.
func TestSearchMetricsParallelismInvariant(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	run := func(j int) *obs.Metrics {
		m := obs.New()
		opt := Options{
			Dims:        matmulDims(64),
			CacheElems:  512,
			BaseEnv:     expr.Env{"N": 64},
			DivisorOf:   64,
			Parallelism: j,
			Obs:         m,
		}
		if _, err := Search(a, opt); err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		return m
	}
	m1, m8 := run(1), run(8)
	for _, name := range deterministicCounters {
		v1 := m1.Counter(name).Load()
		v8 := m8.Counter(name).Load()
		if v1 != v8 {
			t.Errorf("%s: j=1 gives %d, j=8 gives %d", name, v1, v8)
		}
		if v1 == 0 && !strings.HasPrefix(name, "search.pruned") {
			t.Errorf("%s: counter never incremented at j=1", name)
		}
	}
	for _, name := range []string{"search.frontier.size", "search.evaluated", "evalcache.entries"} {
		v1 := m1.Gauge(name).Load()
		v8 := m8.Gauge(name).Load()
		if v1 != v8 {
			t.Errorf("gauge %s: j=1 gives %d, j=8 gives %d", name, v1, v8)
		}
		if v1 <= 0 {
			t.Errorf("gauge %s: non-positive value %d at j=1", name, v1)
		}
	}
	for _, m := range []*obs.Metrics{m1, m8} {
		l := m.Counter("evalcache.lookups").Load()
		h := m.Counter("evalcache.hits").Load()
		mi := m.Counter("evalcache.misses").Load()
		if h+mi != l {
			t.Errorf("evalcache hits %d + misses %d != lookups %d", h, mi, l)
		}
	}
	for j, m := range map[int]*obs.Metrics{1: m1, 8: m8} {
		if c := m.Counter("evalcache.coalesced").Load(); c != 0 {
			t.Errorf("j=%d: coalesced %d evaluation waits", j, c)
		}
	}
	// Worker instruments appear only on the parallel path.
	for _, name := range metricNames(m1) {
		if strings.Contains(name, "worker.") {
			t.Errorf("sequential run registered worker metric %s", name)
		}
	}
	foundWorker := false
	for _, name := range metricNames(m8) {
		if strings.Contains(name, "worker.") {
			foundWorker = true
		}
	}
	if !foundWorker {
		t.Error("parallel run registered no worker utilization metrics")
	}
}

// TestExhaustiveCandidatesMatchGridCount: the exhaustive report's candidate
// counter must equal the analytically-known grid size (divisors of 24 that
// are ≥ MinTile, per dimension), and the evaluated gauge must equal the
// number of distinct assignments actually scored.
func TestExhaustiveCandidatesMatchGridCount(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	m := obs.New()
	const n = 24
	res, err := Exhaustive(a, Options{
		Dims:       matmulDims(n),
		CacheElems: 512,
		BaseEnv:    expr.Env{"N": n},
		DivisorOf:  n,
		Obs:        m,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Divisors of 24: 1, 2, 3, 4, 6, 8, 12, 24 — eight per dimension.
	const perDim = 8
	want := int64(perDim * perDim * perDim)
	if got := m.Counter("search.candidates.exhaustive").Load(); got != want {
		t.Errorf("exhaustive candidates counter %d, want %d", got, want)
	}
	if got := m.Gauge("search.evaluated").Load(); got != int64(res.Evaluated) {
		t.Errorf("evaluated gauge %d, Result.Evaluated %d", got, res.Evaluated)
	}
	if res.Evaluated != int(want) {
		t.Errorf("exhaustive evaluated %d distinct assignments, grid has %d", res.Evaluated, want)
	}
}

// TestSearchTraceSpans: a trace recorder handed to Search must come back
// with the phase spans in order, all closed, with candidate-count attrs
// matching the counters.
func TestSearchTraceSpans(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	m := obs.New()
	tr := obs.NewTrace()
	_, err := Search(a, Options{
		Dims:       matmulDims(64),
		CacheElems: 512,
		BaseEnv:    expr.Env{"N": 64},
		DivisorOf:  64,
		Obs:        m,
		Trace:      tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	recs := tr.Records()
	if len(recs) == 0 {
		t.Fatal("no spans recorded")
	}
	byName := map[string]obs.SpanRecord{}
	for _, r := range recs {
		if r.Nanos < 0 {
			t.Errorf("span %s has negative duration %d", r.Name, r.Nanos)
		}
		byName[r.Name] = r
	}
	for _, want := range []string{"search.coarse", "search.frontier"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing span %q in %v", want, recs)
		}
	}
	if got := byName["search.coarse"].Attrs["candidates"]; got != m.Counter("search.candidates.coarse").Load() {
		t.Errorf("coarse span candidates attr %d != counter %d",
			got, m.Counter("search.candidates.coarse").Load())
	}
	// Refine spans carry their round number.
	foundRefine := false
	for _, r := range recs {
		if r.Name == "search.refine" {
			foundRefine = true
			if _, ok := r.Attrs["round"]; !ok {
				t.Errorf("refine span lacks round attr: %+v", r)
			}
		}
	}
	if !foundRefine {
		t.Error("no search.refine spans recorded")
	}
}

// metricNames returns the names of every counter, gauge and timer m holds.
func metricNames(m *obs.Metrics) []string {
	var out []string
	for n := range m.Counters() {
		out = append(out, n)
	}
	for n := range m.Gauges() {
		out = append(out, n)
	}
	for n := range m.Timers() {
		out = append(out, n)
	}
	return out
}
