package smp

import (
	"reflect"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestSimulateShardsMatchesSimulate pins the explicit per-processor sharded
// simulation to the symmetry-shortcut Simulate on an even split, at several
// pool widths.
func TestSimulateShardsMatchesSimulate(t *testing.T) {
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{
		"NI": 16, "NJ": 16, "NM": 16, "NN": 16,
		"TI": 8, "TJ": 8, "TM": 8, "TN": 8,
	}
	cfg := Config{Procs: 4, SplitSymbol: "NN", CacheElems: 128, Model: DefaultCostModel()}
	want, err := Simulate(nest, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.TotalMisses != want.PerProcMisses*cfg.Procs {
		t.Fatalf("Simulate symmetry broken: total %d, per-proc %d", want.TotalMisses, want.PerProcMisses)
	}
	for _, j := range []int{1, 2, 8, -1} {
		got, err := SimulateShards(nest, env, cfg, ShardOptions{Parallelism: j})
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("j=%d: sharded prediction %+v != %+v", j, got, want)
		}
	}
}

// TestSimulateShardsObsAggregation checks that the per-shard counter
// flushes aggregate to exactly P times one shard's counts, independent of
// pool width.
func TestSimulateShardsObsAggregation(t *testing.T) {
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{
		"NI": 8, "NJ": 8, "NM": 8, "NN": 8,
		"TI": 4, "TJ": 4, "TM": 4, "TN": 4,
	}
	cfg := Config{Procs: 4, SplitSymbol: "NN", CacheElems: 64, Model: DefaultCostModel()}
	counters := func(j int) map[string]int64 {
		m := obs.New()
		if _, err := SimulateShards(nest, env, cfg, ShardOptions{Parallelism: j, Obs: m}); err != nil {
			t.Fatal(err)
		}
		return m.Counters()
	}
	seq := counters(1)
	if seq["cachesim.accesses"] == 0 {
		t.Fatalf("no accesses flushed: %v", seq)
	}
	par := counters(8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("counters vary with pool width:\nj=1 %v\nj=8 %v", seq, par)
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
	if _, err := SimulateShards(nest, env, cfg, ShardOptions{}); err == nil {
		t.Fatal("expected divisibility error for P=3, NN=8")
	}
}

// Simulate computes the same prediction with exact per-processor misses from
// the trace simulator instead of the analytical model. By symmetry every
// processor's subproblem is identical up to translation, so one simulation
// suffices: the oracle SimulateShards, which simulates every processor's
// cache, is pinned to.
func Simulate(nest *loopir.Nest, env expr.Env, cfg Config) (*Prediction, error) {
	penv, err := perProcEnv(env, cfg)
	if err != nil {
		return nil, err
	}
	p, err := trace.Compile(nest, penv)
	if err != nil {
		return nil, err
	}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), []int64{cfg.CacheElems})
	p.RunBlocks(trace.DefaultBlockSize, sim.AccessBlock)
	res := sim.Results()
	misses, err := res.MissesFor(cfg.CacheElems)
	if err != nil {
		return nil, err
	}
	flops, err := Flops(nest).Eval(penv)
	if err != nil {
		return nil, err
	}
	return mkPrediction(cfg, misses, flops), nil
}
