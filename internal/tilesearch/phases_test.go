package tilesearch

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/testutil"
)

func TestKneeAnalysisMatmul(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	base := expr.Env{"N": 64, "TI": 8, "TJ": 8, "TK": 8}
	const cache = 512
	knees, err := KneeAnalysis(a, base, matmulDims(64), cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(knees) == 0 {
		t.Fatal("no knees found")
	}
	// Every knee's claim must verify: at LastFit the SD fits, at LastFit+1
	// (if within range) it does not — except for non-monotone expressions,
	// which do not occur for matmul.
	for _, k := range knees {
		if k.AlwaysFit {
			continue
		}
		env := expr.Env{}
		for kk, vv := range base {
			env[kk] = vv
		}
		if k.LastFit > 0 {
			env[k.Dim] = k.LastFit
			v, err := maxSD(k.SD, env)
			if err != nil {
				t.Fatal(err)
			}
			if v > cache {
				t.Errorf("dim %s at last-fit %d: SD %s = %d exceeds cache", k.Dim, k.LastFit, k.SD, v)
			}
		}
	}
	out := FormatKnees(knees)
	if !strings.Contains(out, "TI") || !strings.Contains(out, "stack distance") {
		t.Fatalf("bad rendering:\n%s", out)
	}
}

// TestKneesPredictSearchOptimum: the searched optimum's tile values must sit
// at or below some knee in each dimension — optima never live strictly
// inside a phase (where growing the tile only helps).
func TestKneesPredictSearchOptimum(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	const n, cache = 64, 512
	res, err := Search(a, Options{
		Dims:       matmulDims(n),
		CacheElems: cache,
		BaseEnv:    expr.Env{"N": n},
		DivisorOf:  n,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := expr.Env{"N": n}
	for k, v := range res.Best.Tiles {
		base[k] = v
	}
	knees, err := KneeAnalysis(a, base, matmulDims(n), cache)
	if err != nil {
		t.Fatal(err)
	}
	// For each dimension of the optimum, either some knee sits at or above
	// the chosen value (the choice is knee-limited) or the dimension's SDs
	// always fit (the choice is bound-limited).
	for dim, v := range res.Best.Tiles {
		ok := v == int64(n) // at the bound: nothing to prove
		for _, k := range knees {
			if k.Dim != dim {
				continue
			}
			if k.AlwaysFit || k.LastFit >= v {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("optimum %s=%d not explained by any knee:\n%s", dim, v, FormatKnees(knees))
		}
	}
}

// maxSD evaluates the largest value a (possibly position-dependent) stack
// distance takes under env: the tree-walking form, kept as the oracle the
// knee tests verify claims against.
func maxSD(sd core.LinForm, env expr.Env) (int64, error) {
	base, err := sd.Base.Eval(env)
	if err != nil {
		return 0, err
	}
	if sd.IsConst() {
		return base, nil
	}
	slope, err := sd.Slope.Eval(env)
	if err != nil {
		return 0, err
	}
	// The free variable's range is not tracked here; bound it by the
	// largest bound-ish symbol in env for a conservative maximum.
	var maxSym int64 = 1
	for _, v := range env {
		if v > maxSym {
			maxSym = v
		}
	}
	if slope > 0 {
		return base + slope*(maxSym-1), nil
	}
	return base, nil
}
