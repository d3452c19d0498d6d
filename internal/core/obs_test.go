package core

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/obs"
)

func analyzedMatmulObs(t *testing.T, m *obs.Metrics) *Analysis {
	t.Helper()
	nest, err := kernels.TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Obs = m
	a, err := AnalyzeWithOptions(nest, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAnalyzeStageTimings ties the analysis-stage timers to behavior: every
// stage is non-negative, the disjoint stages sum to at most the total, and
// the stage counters equal the analysis' actual site/component counts.
func TestAnalyzeStageTimings(t *testing.T) {
	m := obs.New()
	a := analyzedMatmulObs(t, m)

	timers := m.Timers()
	for _, name := range []string{"analyze.class", "analyze.partition", "analyze.span", "analyze.total"} {
		ts, ok := timers[name]
		if !ok {
			t.Fatalf("timer %s not recorded (have %v)", name, timers)
		}
		if ts.Nanos < 0 {
			t.Errorf("timer %s negative: %d ns", name, ts.Nanos)
		}
		if ts.Count <= 0 {
			t.Errorf("timer %s has no observations", name)
		}
	}
	sum := timers["analyze.class"].Nanos + timers["analyze.partition"].Nanos + timers["analyze.span"].Nanos
	if total := timers["analyze.total"].Nanos; sum > total {
		t.Errorf("stage sum %d ns exceeds total %d ns", sum, total)
	}

	counters := m.Counters()
	if got, want := counters["analyze.components"], int64(len(a.Components)); got != want {
		t.Errorf("analyze.components = %d, want %d", got, want)
	}
	if got, want := counters["analyze.sites"], int64(len(a.Nest.Sites())); got != want {
		t.Errorf("analyze.sites = %d, want %d", got, want)
	}
}

// TestAnalyzeNilObsIsFree: the uninstrumented path must record nothing and
// still produce the identical analysis.
func TestAnalyzeNilObsIsFree(t *testing.T) {
	nest, err := kernels.TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	observed := analyzedMatmulObs(t, m)
	if len(plain.Components) != len(observed.Components) {
		t.Fatalf("instrumentation changed the analysis: %d vs %d components",
			len(plain.Components), len(observed.Components))
	}
	for i := range plain.Components {
		if plain.Components[i].String() != observed.Components[i].String() {
			t.Errorf("component %d differs: %s vs %s",
				i, plain.Components[i], observed.Components[i])
		}
	}
}
