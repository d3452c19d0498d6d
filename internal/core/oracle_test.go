package core

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/nestgen"
)

// The tree-walking oracle: the model evaluated straight from the symbolic
// component expressions on an Env, with no compiled programs, frames or
// memo. Every frame query must reproduce it exactly.

// evalComponentValues evaluates the component's expressions under env.
func evalComponentValues(c *Component, env expr.Env) (componentValues, error) {
	var v componentValues
	count, err := c.Count.Eval(env)
	if err != nil {
		return v, err
	}
	if count < 0 {
		count = 0 // e.g. (trip-1) when a loop has a single iteration
	}
	v.Count = count
	if c.SD.Base.IsInf() {
		v.Inf = true
		return v, nil
	}
	if count == 0 {
		v.Const = true
		return v, nil
	}
	if c.SD.IsConst() {
		v.Const = true
		v.SD, err = c.SD.Base.Eval(env)
		return v, err
	}
	if v.Base, err = c.SD.Base.Eval(env); err != nil {
		return v, err
	}
	if v.Slope, err = c.SD.Slope.Eval(env); err != nil {
		return v, err
	}
	if v.Range, err = c.FreeRange.Eval(env); err != nil {
		return v, err
	}
	if v.Range <= 0 {
		return v, fmt.Errorf("core: non-positive free range for %s", c.Site.Key())
	}
	return v, nil
}

// treePredict is the oracle's report loop: it validates env, evaluates every
// component once by tree walking, and classifies the values at each
// fully-associative capacity.
func treePredict(a *Analysis, env expr.Env, caps []int64) ([]*MissReport, error) {
	if err := a.Nest.ValidateEnv(env); err != nil {
		return nil, err
	}
	vals := make([]componentValues, len(a.Components))
	for i, c := range a.Components {
		v, err := evalComponentValues(c, env)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	reps := make([]*MissReport, len(caps))
	for k, cacheElems := range caps {
		rep := &MissReport{CacheElems: cacheElems, BySite: map[string]int64{}}
		for i, c := range a.Components {
			cm := classifyComponent(c, vals[i], cacheElems)
			rep.Detail = append(rep.Detail, cm)
			rep.Total += cm.Misses
			rep.BySite[c.Site.Key()] += cm.Misses
			rep.Accesses += cm.Count
		}
		reps[k] = rep
	}
	return reps, nil
}

// predictTotal is the fully-associative total at env through the frame
// query, failing the test on error.
func predictTotal(tb testing.TB, a *Analysis, env expr.Env, cacheElems int64) int64 {
	tb.Helper()
	rep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), cacheElems)
	if err != nil {
		tb.Fatal(err)
	}
	return rep.Total
}

// powerOfTwoEnvs returns base extended with every assignment of the powers
// of two in [4, max] to the tile symbols: the grid the §6 search sweeps.
func powerOfTwoEnvs(base expr.Env, max int64, tiles ...string) []expr.Env {
	envs := []expr.Env{base}
	for _, sym := range tiles {
		var next []expr.Env
		for _, env := range envs {
			for v := int64(4); v <= max; v *= 2 {
				e := maps.Clone(env)
				e[sym] = v
				next = append(next, e)
			}
		}
		envs = next
	}
	return envs
}

// sameError reports whether two errors are both nil or have identical text.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// TestPredictMatchesTreeOracle: Analysis.PredictMissesFrameConfig and
// PredictTotalFrameConfig must reproduce the tree-walking oracle at several fully-associative capacities — the same reports, and
// for rejected inputs the same error text — on the tile grids the search
// sweeps, the imperfect nest, a seeded random corpus and the error cases.
func TestPredictMatchesTreeOracle(t *testing.T) {
	type fixture struct {
		name  string
		a     *Analysis
		envs  []expr.Env
		fails bool // every env must be rejected
	}
	analyze := func(build func() (*Analysis, error)) *Analysis {
		a, err := build()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	twoIndex := func() *Analysis {
		return analyze(func() (*Analysis, error) {
			nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
			if err != nil {
				return nil, err
			}
			return Analyze(nest)
		})
	}
	bounds256 := expr.Env{"NI": 256, "NJ": 256, "NM": 256, "NN": 256}
	matmul := matmulAnalysis(t)
	fixtures := []fixture{
		{"matmul-n64", matmul, powerOfTwoEnvs(expr.Env{"N": 64}, 64, "TI", "TJ", "TK"), false},
		{"matmul-n4096", matmul, powerOfTwoEnvs(expr.Env{"N": 4096}, 64, "TI", "TJ", "TK"), false},
		{"twoindex-n256", twoIndex(), powerOfTwoEnvs(bounds256, 256, "TI", "TJ", "TM", "TN"), false},
		{"imperfect", analyze(func() (*Analysis, error) { return Analyze(imperfectNest(t)) }),
			[]expr.Env{{"N": 1}, {"N": 7}, {"N": 30}}, false},
		{"errors", matmul, []expr.Env{
			{"N": 64, "TI": 8, "TJ": 8},           // missing symbol
			{"N": 64, "TI": 0, "TJ": 8, "TK": 8},  // non-positive symbol
			{"N": -64, "TI": 8, "TJ": 8, "TK": 8}, // non-positive bound
		}, true},
	}
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 24; i++ {
		nest, env, err := nestgen.Generate(r, i, nestgen.Config{Imperfect: i%2 == 1})
		if err != nil {
			t.Fatal(err)
		}
		a := analyze(func() (*Analysis, error) { return Analyze(nest) })
		fixtures = append(fixtures, fixture{fmt.Sprintf("nestgen-%d", i), a, []expr.Env{env}, false})
	}
	// Inputs no validated nest produces, made by patching a component and
	// recompiling: a free range that evaluates to zero, and a negative
	// count.
	zeroRange := twoIndex()
	for _, c := range zeroRange.Components {
		if !c.SD.Base.IsInf() && !c.SD.IsConst() {
			c.FreeRange = expr.Zero()
			break
		}
	}
	zeroRange.ca = compileAnalysis(zeroRange)
	negCount := matmulAnalysis(t)
	negCount.Components[0].Count = expr.Sub(expr.One(), expr.Var("N"))
	negCount.ca = compileAnalysis(negCount)
	fixtures = append(fixtures,
		fixture{"zero-free-range", zeroRange, powerOfTwoEnvs(bounds256, 8, "TI", "TJ", "TM", "TN"), true},
		fixture{"negative-count", negCount, []expr.Env{{"N": 64, "TI": 8, "TJ": 8, "TK": 8}}, false})

	caps := []int64{16, 512, 8192}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			f := fx.a.NewFrame()
			for _, env := range fx.envs {
				f.Reset()
				f.Bind(env)
				want, wantErr := treePredict(fx.a, env, caps)
				if fx.fails && wantErr == nil {
					t.Fatalf("env %v: oracle accepted an input it must reject", env)
				}
				for k, c := range caps {
					cfg := CacheConfig{CapacityElems: c}
					got, err := fx.a.PredictMissesFrameConfig(f, cfg)
					total, errTotal := fx.a.PredictTotalFrameConfig(f, cfg)
					for _, e := range []error{err, errTotal} {
						if !sameError(e, wantErr) {
							t.Fatalf("env %v cache %d: error %v, oracle %v", env, c, e, wantErr)
						}
					}
					if wantErr != nil {
						continue
					}
					diffReports(t, got, want[k])
					if total != want[k].Total {
						t.Fatalf("env %v cache %d: total %d, oracle %d", env, c, total, want[k].Total)
					}
				}
			}
		})
	}
}
