package repro

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/smp"
	"repro/internal/tce"
	"repro/internal/tilesearch"
	"repro/internal/trace"
	"repro/internal/validate"
)

// TestFullPipeline drives the complete TCE workflow the paper describes,
// end to end: tensor contraction specification → operation minimization →
// code generation → loop fusion → cache characterization → tile selection
// → SMP prediction, with exact-simulation validation at each analyzable
// stage.
func TestFullPipeline(t *testing.T) {
	// 1. The chemistry input: B(m,n) = Σ_{i,j} C1(m,i)·C2(n,j)·A(i,j).
	contraction, ranges := tce.TwoIndexTransform()
	if err := contraction.Validate(ranges); err != nil {
		t.Fatal(err)
	}

	// 2. Operation minimization.
	plan, err := tce.OpMin(contraction, ranges, expr.Env{"N": 100, "V": 100})
	if err != nil {
		t.Fatal(err)
	}
	steps := plan.Sequence()
	if len(steps) != 2 {
		t.Fatalf("plan has %d steps", len(steps))
	}

	// 3. Code generation (unfused) and mechanical fusion.
	unfused, err := tce.GenLoopNest("pipeline-unfused", steps, ranges)
	if err != nil {
		t.Fatal(err)
	}
	fused, _, err := loopir.FuseLegal(unfused)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Loops()) >= len(unfused.Loops()) {
		t.Fatal("fusion had no effect")
	}

	// 4. Full storage contraction via the fused transform chain.
	chainNest, err := tce.GenFusedTransformChain("pipeline-chain", steps, ranges)
	if err != nil {
		t.Fatal(err)
	}

	// 5. Cache characterization of every generated form, validated.
	env := expr.Env{"N": 24, "V": 16}
	for _, nest := range []*loopir.Nest{unfused, fused, chainNest} {
		a, err := core.Analyze(nest)
		if err != nil {
			t.Fatalf("%s: %v", nest.Name, err)
		}
		cmps, err := validate.Run(a, env, []int64{128, 2048})
		if err != nil {
			t.Fatal(err)
		}
		if err := validate.CheckCompulsory(cmps); err != nil {
			t.Fatalf("%s: %v", nest.Name, err)
		}
		for _, c := range cmps {
			if c.RelErr() > 0.25 {
				t.Errorf("%s at %d elements: rel err %.3f", nest.Name, c.CacheElems, c.RelErr())
			}
		}
	}

	// 6. The production path: the hand-tiled Fig. 6 kernel, tile-searched
	// and SMP-predicted.
	tiled, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	ta, err := core.Analyze(tiled)
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	search, err := tilesearch.Search(ta, tilesearch.Options{
		Dims: []tilesearch.Dim{{Symbol: "TI", Max: n}, {Symbol: "TJ", Max: n},
			{Symbol: "TM", Max: n}, {Symbol: "TN", Max: n}},
		CacheElems: 2048,
		BaseEnv:    expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n},
		DivisorOf:  n,
	})
	if err != nil {
		t.Fatal(err)
	}
	tenv := expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n}
	for k, v := range search.Best.Tiles {
		tenv[k] = v
	}
	pred, err := smp.Predict(ta, tenv, smp.Config{
		Procs: 2, SplitSymbol: "NN", CacheElems: 2048, Model: smp.DefaultCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pred.PerProcFlops != 2*2*n*n*n/2 {
		t.Errorf("per-proc flops %d", pred.PerProcFlops)
	}

	// 7. The searched tiles must beat naive equal tiles under exact
	// simulation (the end-to-end payoff).
	simMisses := func(tiles map[string]int64) int64 {
		e := expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n}
		for k, v := range tiles {
			e[k] = v
		}
		p, err := trace.Compile(tiled, e)
		if err != nil {
			t.Fatal(err)
		}
		sim := cachesim.NewStackSim(p.Size, len(p.Sites), []int64{2048})
		p.RunBlocks(0, sim.AccessBlock)
		m, err := sim.Results().MissesFor(2048)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	best := simMisses(search.Best.Tiles)
	equi := simMisses(map[string]int64{"TI": 32, "TJ": 32, "TM": 32, "TN": 32})
	if best > equi {
		t.Errorf("searched tiles %v simulate to %d misses, equi-32 to %d", search.Best.Tiles, best, equi)
	}
}
