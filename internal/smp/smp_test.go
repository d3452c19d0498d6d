package smp

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
)

func analyzedTwoIndex(t *testing.T) *core.Analysis {
	t.Helper()
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFlops(t *testing.T) {
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	env, err := kernels.TwoIndexEnv(16, 4, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Flops(nest).Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	// S7: 2·NI·NJ·NN, S9: 2·NI·NM·NN.
	want := int64(2*16*16*16 + 2*16*16*16)
	if got != want {
		t.Fatalf("flops %d want %d", got, want)
	}
}

func TestPredictScaling(t *testing.T) {
	a := analyzedTwoIndex(t)
	env, err := kernels.TwoIndexEnv(64, 16, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SplitSymbol: "NN", CacheElems: 512, Model: DefaultCostModel()}
	var prev *Prediction
	for _, p := range []int64{1, 2, 4} {
		cfg.Procs = p
		pred, err := Predict(a, env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if pred.PerProcFlops*p != 2*2*64*64*64 {
			t.Errorf("P=%d per-proc flops %d", p, pred.PerProcFlops)
		}
		if prev != nil {
			// More processors must not increase per-processor time under
			// the infinite-bandwidth model.
			if pred.TimeInfiniteBW > prev.TimeInfiniteBW {
				t.Errorf("P=%d infinite-BW time %f > P=%d time %f",
					p, pred.TimeInfiniteBW, prev.Procs, prev.TimeInfiniteBW)
			}
		}
		if pred.TimeBusBound < pred.TimeInfiniteBW {
			t.Errorf("bus-bound time below infinite-BW time at P=%d", p)
		}
		prev = pred
	}
}

func TestPredictRejectsBadSplit(t *testing.T) {
	a := analyzedTwoIndex(t)
	env, err := kernels.TwoIndexEnv(64, 16, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Procs: 3, SplitSymbol: "NN", CacheElems: 512, Model: DefaultCostModel()}
	if _, err := Predict(a, env, cfg); err == nil {
		t.Fatal("3 procs should not divide NN=64 evenly with tiles")
	}
	cfg = Config{Procs: 2, SplitSymbol: "NOPE", CacheElems: 512, Model: DefaultCostModel()}
	if _, err := Predict(a, env, cfg); err == nil {
		t.Fatal("unknown split symbol accepted")
	}
}

// TestSimulateMatchesPredictShape: simulated per-processor misses and the
// analytical prediction must agree within the model's tolerance.
func TestSimulateMatchesPredict(t *testing.T) {
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env, err := kernels.TwoIndexEnv(32, 8, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Procs: 2, SplitSymbol: "NN", CacheElems: 256, Model: DefaultCostModel()}
	pred, err := Predict(a, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Simulate(nest, env, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	diff := pred.PerProcMisses - sim.PerProcMisses
	if diff < 0 {
		diff = -diff
	}
	tol := sim.PerProcMisses/5 + 4*32*32
	if diff > tol {
		t.Errorf("predicted per-proc misses %d vs simulated %d (tol %d)",
			pred.PerProcMisses, sim.PerProcMisses, tol)
	}
}

func TestSweep(t *testing.T) {
	a := analyzedTwoIndex(t)
	base := expr.Env{"NI": 64, "NJ": 64, "NM": 64, "NN": 64}
	cfg := Config{SplitSymbol: "NN", CacheElems: 512, Model: DefaultCostModel()}
	choices := []TileChoice{
		{Label: "equi-16", Tiles: map[string]int64{"TI": 16, "TJ": 16, "TM": 16, "TN": 16}},
		{Label: "equi-8", Tiles: map[string]int64{"TI": 8, "TJ": 8, "TM": 8, "TN": 8}},
	}
	points, err := Sweep(a, base, cfg, []int64{1, 2, 4}, choices)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d sweep points want 6", len(points))
	}
	for _, pt := range points {
		if pt.Pred.TimeInfiniteBW <= 0 {
			t.Errorf("non-positive time for %s P=%d", pt.Choice.Label, pt.Pred.Procs)
		}
	}
}

func TestRunParallelTwoIndexCorrect(t *testing.T) {
	const n = 32
	a, c1, c2 := kernels.NewMatrix(n, n), kernels.NewMatrix(n, n), kernels.NewMatrix(n, n)
	a.FillSequential(0.1)
	c1.FillSequential(0.2)
	c2.FillSequential(0.3)
	want, err := kernels.TwoIndexFused(a, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		b := kernels.NewMatrix(n, n)
		if err := RunParallelTwoIndex(a, c1, c2, b, 8, 8, 8, 8, procs); err != nil {
			t.Fatal(err)
		}
		if d := kernels.MaxAbsDiff(want, b); d > 1e-6 {
			t.Errorf("procs=%d deviates by %g", procs, d)
		}
	}
	b := kernels.NewMatrix(n, n)
	if err := RunParallelTwoIndex(a, c1, c2, b, 8, 8, 8, 8, 3); err == nil {
		t.Error("3 procs should not divide 4 n-tiles")
	}
}

func TestCostModelSeconds(t *testing.T) {
	m := DefaultCostModel()
	p := Prediction{TimeInfiniteBW: 2e9, TimeBusBound: 4e9}
	if got := p.SecondsInfinite(m); got != 2.0 {
		t.Errorf("SecondsInfinite = %v", got)
	}
	if got := p.SecondsBus(m); got != 4.0 {
		t.Errorf("SecondsBus = %v", got)
	}
}

// TestSimulateShardsUnevenSplit confirms the divisibility error surfaces.
func TestSimulateShardsUnevenSplit(t *testing.T) {
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{
		"NI": 8, "NJ": 8, "NM": 8, "NN": 8,
		"TI": 4, "TJ": 4, "TM": 4, "TN": 4,
	}
	cfg := Config{Procs: 3, SplitSymbol: "NN", CacheElems: 64, Model: DefaultCostModel()}
	if _, err := Simulate(nest, env, cfg, nil); err == nil {
		t.Fatal("expected divisibility error for P=3, NN=8")
	}
}

// TestSimulateAddressBound: a per-processor subproblem over more than
// trace.DefaultBudget elements is refused before a simulator is sized (at
// about 24 bytes per address, this one would ask for over 100 GB).
func TestSimulateAddressBound(t *testing.T) {
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 15
	env := expr.Env{
		"NI": n, "NJ": n, "NM": n, "NN": n,
		"TI": 64, "TJ": 16, "TM": 16, "TN": 64,
	}
	cfg := Config{Procs: 2, SplitSymbol: "NN", CacheElems: 8192, Model: DefaultCostModel()}
	_, err = Simulate(nest, env, cfg, nil)
	if err == nil || !strings.Contains(err.Error(), "elements exceeds limit 268435456") {
		t.Fatalf("got %v, want the address-space bound", err)
	}
}
