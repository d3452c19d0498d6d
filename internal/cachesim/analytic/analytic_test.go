package analytic

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// matmulEnv binds the tiled matmul's symbols for a small concrete run.
func matmulEnv(n, tile int64) expr.Env {
	return expr.Env{"N": n, "TI": tile, "TJ": tile, "TK": tile}
}

// TestAnalyticMatchesExactMatmul runs the analytic engine and the exact
// simulator side by side on a small tiled matmul and checks the tiered
// fidelity contract: accesses and compulsory counts exact, misses exact at
// capacity 1 and at any capacity covering the footprint, and within the
// model envelope in between.
func TestAnalyticMatchesExactMatmul(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	env := matmulEnv(24, 8)
	watches := []int64{1, 64, 256, 4096}

	p, err := trace.Compile(a.Nest, env)
	if err != nil {
		t.Fatal(err)
	}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.RunBlocks(0, sim.AccessBlock)
	er := sim.Results()

	ar, info, err := Simulate(a, env, watches)
	if err != nil {
		t.Fatal(err)
	}
	if info.Components != len(a.Components) || info.Components == 0 {
		t.Errorf("info.Components = %d, want %d (non-zero)", info.Components, len(a.Components))
	}
	if ar.Accesses != er.Accesses {
		t.Errorf("accesses: analytic %d vs exact %d", ar.Accesses, er.Accesses)
	}
	if ar.Distinct != er.Distinct {
		t.Errorf("compulsory: analytic %d vs exact %d", ar.Distinct, er.Distinct)
	}
	for wi, w := range watches {
		am, em := ar.Misses[wi], er.Misses[wi]
		switch {
		case w == 1:
			// Capacity 1: every non-repeat access misses; the closed form has
			// no boundary terms to get wrong.
			if am != em {
				t.Errorf("capacity 1: analytic %d vs exact %d", am, em)
			}
		case w >= 3*24*24:
			// Footprint fits: misses are exactly the compulsory count.
			if am != em || am != er.Distinct {
				t.Errorf("capacity %d covers footprint: analytic %d, exact %d, distinct %d",
					w, am, em, er.Distinct)
			}
		default:
			d := float64(am - em)
			if d < 0 {
				d = -d
			}
			if rel := d / float64(em); rel > 0.20 {
				t.Errorf("capacity %d: analytic %d vs exact %d (rel err %.3f > 0.20)", w, am, em, rel)
			}
		}
	}
}

// TestAnalyticPerSite checks the per-site decomposition: site totals add up
// to the global totals and the per-site vectors match the exact simulator's
// capacity-independent columns.
func TestAnalyticPerSite(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	env := matmulEnv(16, 8)
	watches := []int64{32, 1024}

	p, err := trace.Compile(a.Nest, env)
	if err != nil {
		t.Fatal(err)
	}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.RunBlocks(0, sim.AccessBlock)
	er := sim.Results()

	ar, _, err := Simulate(a, env, watches)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.PerSite) != len(p.Sites) {
		t.Fatalf("per-site stats for %d sites, want %d", len(ar.PerSite), len(p.Sites))
	}
	labels := SiteLabels(a.Nest)
	if len(labels) != len(p.Sites) {
		t.Fatalf("SiteLabels returned %d labels for %d sites", len(labels), len(p.Sites))
	}
	var accSum, ftSum int64
	missSum := make([]int64, len(watches))
	for si, ps := range ar.PerSite {
		if labels[si] != p.Sites[si].Key() {
			t.Errorf("site %d label %q, trace key %q", si, labels[si], p.Sites[si].Key())
		}
		if ps.Accesses != er.PerSite[si].Accesses {
			t.Errorf("site %s accesses: analytic %d vs exact %d", labels[si], ps.Accesses, er.PerSite[si].Accesses)
		}
		if ps.FirstTouch != er.PerSite[si].FirstTouch {
			t.Errorf("site %s first touches: analytic %d vs exact %d", labels[si], ps.FirstTouch, er.PerSite[si].FirstTouch)
		}
		accSum += ps.Accesses
		ftSum += ps.FirstTouch
		for wi := range watches {
			missSum[wi] += ps.Misses[wi]
		}
	}
	if accSum != ar.Accesses {
		t.Errorf("per-site accesses sum %d != total %d", accSum, ar.Accesses)
	}
	if ftSum != ar.Distinct {
		t.Errorf("per-site first touches sum %d != distinct %d", ftSum, ar.Distinct)
	}
	for wi, w := range watches {
		if missSum[wi] != ar.Misses[wi] {
			t.Errorf("capacity %d: per-site misses sum %d != total %d", w, missSum[wi], ar.Misses[wi])
		}
	}
}

// TestAnalyticNoWatches: an empty watch list still reports accesses and
// compulsory counts (the capacity-independent half of the result).
func TestAnalyticNoWatches(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	ar, _, err := Simulate(a, matmulEnv(16, 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ar.Misses) != 0 || len(ar.Watches) != 0 {
		t.Errorf("no watches requested, got misses %v watches %v", ar.Misses, ar.Watches)
	}
	want := int64(3 * 16 * 16 * 16) // 3 reference sites in the innermost body
	if ar.Accesses != want {
		t.Errorf("accesses = %d, want %d", ar.Accesses, want)
	}
	if ar.Distinct != 3*16*16 {
		t.Errorf("distinct = %d, want %d", ar.Distinct, 3*16*16)
	}
}

// TestAnalyticFrameReuse: SimulateFrame on a pooled frame equals Simulate,
// and the frame survives for a second evaluation (the serving-layer usage).
func TestAnalyticFrameReuse(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	env := matmulEnv(16, 4)
	watches := []int64{128}

	want, _, err := Simulate(a, env, watches)
	if err != nil {
		t.Fatal(err)
	}
	f := a.GetFrame()
	defer a.PutFrame(f)
	for name, v := range env {
		f.Set(a.SymTab().Slot(name), v)
	}
	for round := 0; round < 2; round++ {
		got, _, err := SimulateFrame(a, f, watches)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got.Accesses != want.Accesses || got.Misses[0] != want.Misses[0] || got.Distinct != want.Distinct {
			t.Fatalf("round %d: frame result %+v differs from env result %+v", round, got, want)
		}
	}
}

// exactRun plays the nest's trace at env through the exact simulator and
// returns its results and its logical stack operations.
func exactRun(t *testing.T, a *core.Analysis, env expr.Env, watches []int64) (cachesim.Results, int64) {
	t.Helper()
	p, err := trace.Compile(a.Nest, env)
	if err != nil {
		t.Fatal(err)
	}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.RunBlocks(0, sim.AccessBlock)
	m := obs.New()
	sim.FlushMetrics(m)
	return sim.Results(), m.Counters()["cachesim.stack_ops"]
}

// TestAnalyticWorkIndependentOfTrace is the engines' cost asymmetry as
// counts. On the tiled matmul at n=128 (6.3e6 accesses) the analytic engine
// reports the exact simulator's access and compulsory totals. The exact
// engine's stack operations grow with n, but the analytic engine evaluates
// closed forms: its Info and its allocations are the same at n=64 and at
// n=2048, a trace of 2.6e10 accesses that no walk finishes within a test.
func TestAnalyticWorkIndependentOfTrace(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	watches := []int64{2048, 8192}
	ex, ops128 := exactRun(t, a, matmulEnv(128, 16), watches)
	_, ops64 := exactRun(t, a, matmulEnv(64, 16), watches)
	ar, _, err := Simulate(a, matmulEnv(128, 16), watches)
	if err != nil {
		t.Fatal(err)
	}
	if ar.Accesses != ex.Accesses || ar.Distinct != ex.Distinct {
		t.Errorf("n=128: analytic accesses/distinct %d/%d, exact %d/%d", ar.Accesses, ar.Distinct, ex.Accesses, ex.Distinct)
	}
	if ops128 <= ops64 {
		t.Errorf("exact stack ops %d at n=128, %d at n=64: want growth with the trace", ops128, ops64)
	}

	work := func(n int64) (Info, float64) {
		env := matmulEnv(n, 16)
		_, info, err := Simulate(a, env, watches)
		if err != nil {
			t.Fatal(err)
		}
		return info, testing.AllocsPerRun(10, func() { Simulate(a, env, watches) })
	}
	info64, allocs64 := work(64)
	info2048, allocs2048 := work(2048)
	if info64 != info2048 {
		t.Errorf("analytic Info depends on n: n=64 %+v, n=2048 %+v", info64, info2048)
	}
	// Under the race detector sync.Pool drops entries at random (fmt's
	// printer pool is on this path), so allocation counts vary from run to
	// run and are compared only without it.
	if !raceEnabled && allocs64 != allocs2048 {
		t.Errorf("analytic allocations depend on n: %.0f at n=64, %.0f at n=2048", allocs64, allocs2048)
	}
}
