package validate

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
)

func TestRunOnTiledMatmul(t *testing.T) {
	nest, err := kernels.TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env, err := kernels.MatmulEnv(32, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cmps, err := Run(a, env, []int64{64, 512, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmps) != 3 {
		t.Fatalf("got %d comparisons", len(cmps))
	}
	if err := CheckCompulsory(cmps); err != nil {
		t.Fatal(err)
	}
	for _, c := range cmps {
		if c.RelErr() > 0.10 {
			t.Errorf("cache %d: rel err %.3f", c.CacheElems, c.RelErr())
		}
		var siteSumP, siteSumS int64
		for _, s := range c.Sites {
			siteSumP += s.Predicted
			siteSumS += s.Simulated
		}
		if siteSumP != c.PredictedTotal {
			t.Errorf("per-site predicted %d != total %d", siteSumP, c.PredictedTotal)
		}
		if siteSumS != c.SimulatedTotal {
			t.Errorf("per-site simulated %d != total %d", siteSumS, c.SimulatedTotal)
		}
	}
	out := Format(cmps)
	if !strings.Contains(out, "predicted") || !strings.Contains(out, "S1#0") {
		t.Fatalf("bad formatting:\n%s", out)
	}
}

func TestRunOnTwoIndex(t *testing.T) {
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
	cmps, err := Run(a, env, []int64{128, 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckCompulsory(cmps); err != nil {
		t.Fatal(err)
	}
	for _, c := range cmps {
		if c.RelErr() > 0.15 {
			t.Errorf("cache %d: predicted %d vs simulated %d (rel err %.3f)",
				c.CacheElems, c.PredictedTotal, c.SimulatedTotal, c.RelErr())
		}
	}
}

func TestRelErrEdgeCases(t *testing.T) {
	if (Comparison{}).RelErr() != 0 {
		t.Error("0/0 should be 0")
	}
	c := Comparison{PredictedTotal: 5}
	if c.RelErr() != 1 {
		t.Error("n/0 should be 1")
	}
}

func TestRunRejectsBadEnv(t *testing.T) {
	nest, err := kernels.TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(a, expr.Env{"N": 8}, []int64{64}); err == nil {
		t.Fatal("missing tile symbols accepted")
	}
}
