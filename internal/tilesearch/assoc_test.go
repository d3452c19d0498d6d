package tilesearch

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/testutil"
)

// Tests for the set-associative scoring path: Options.Ways/LineElems thread
// a core.CacheConfig through every evaluator branch (compiled frames,
// tree-walking, unknown bounds) and through the knee analysis. The contract
// under test is two-sided: a fully-associative geometry must leave every
// result byte-identical to the capacity-only model, and a set-associative
// one must actually change the scores where conflicts bite.

// TestSearchFullyAssociativeGeometryIdentity: Ways equal to the number of
// lines is a single-set (fully-associative) geometry, so the search must
// return exactly what the omitted-Ways search returns — best, frontier,
// evaluation counts and cache stats alike.
func TestSearchFullyAssociativeGeometryIdentity(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	const n, cache = 64, 512
	base := Options{
		Dims:       matmulDims(n),
		CacheElems: cache,
		BaseEnv:    expr.Env{"N": n},
		DivisorOf:  n,
	}
	want, err := Search(a, base)
	if err != nil {
		t.Fatal(err)
	}
	full := base
	full.Ways = cache // one set: fully associative
	got, err := Search(a, full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("full-ways search differs from omitted-ways search:\n got %+v\nwant %+v", got, want)
	}
}

// TestSearchInvalidGeometry: both entry points must reject a geometry the
// simulator would reject, before any evaluation happens.
func TestSearchInvalidGeometry(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	opt := Options{
		Dims:       matmulDims(64),
		CacheElems: 512,
		Ways:       3, // 512 lines not divisible by 3 ways
		BaseEnv:    expr.Env{"N": 64},
	}
	if _, err := Search(a, opt); err == nil || !strings.Contains(err.Error(), "cache geometry") {
		t.Fatalf("Search: want cache geometry error, got %v", err)
	}
	if _, err := Exhaustive(a, opt); err == nil || !strings.Contains(err.Error(), "cache geometry") {
		t.Fatalf("Exhaustive: want cache geometry error, got %v", err)
	}
}

// TestSearchSetAssocDiffersAndIsDeterministic: a direct-mapped geometry must
// change candidate scores on the resonant matmul (stride-N column lattices
// land on few sets), and the set-associative search must stay byte-identical
// across parallelism levels.
func TestSearchSetAssocDiffersAndIsDeterministic(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	const n, cache = 64, 512
	opt := Options{
		Dims:       matmulDims(n),
		CacheElems: cache,
		Ways:       1,
		BaseEnv:    expr.Env{"N": n},
		DivisorOf:  n,
	}
	dm, err := Search(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	fa := opt
	fa.Ways = 0
	faRes, err := Search(a, fa)
	if err != nil {
		t.Fatal(err)
	}
	if dm.Best.Misses == faRes.Best.Misses {
		t.Errorf("direct-mapped best misses %d equal fully-associative best %d: conflict term had no effect",
			dm.Best.Misses, faRes.Best.Misses)
	}
	for _, parallelism := range []int{2, -1} {
		p := opt
		p.Parallelism = parallelism
		got, err := Search(a, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, dm) {
			t.Fatalf("parallelism %d: set-associative search differs from sequential", parallelism)
		}
	}
}

// TestKneeAnalysisConfig: the fully-associative config must delegate (same
// knees, byte for byte); a direct-mapped config must move at least one knee
// (either direction — resonant sets thrash tiles the capacity test accepts,
// and the set split confines thrashing the capacity test condemns) and its
// claims must be self-consistent: at a reported last-fit the conflict-aware
// prediction for that expression's components is actually zero.
func TestKneeAnalysisConfig(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	base := expr.Env{"N": 64, "TI": 8, "TJ": 8, "TK": 8}
	const cache = 512
	faKnees, err := KneeAnalysis(a, base, matmulDims(64), cache)
	if err != nil {
		t.Fatal(err)
	}
	delegated, err := KneeAnalysisConfig(a, base, matmulDims(64), core.CacheConfig{CapacityElems: cache})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(delegated, faKnees) {
		t.Fatalf("fully-associative config knees differ from KneeAnalysis:\n got %v\nwant %v", delegated, faKnees)
	}
	dmKnees, err := KneeAnalysisConfig(a, base, matmulDims(64),
		core.CacheConfig{CapacityElems: cache, Ways: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(dmKnees) == 0 {
		t.Fatal("no knees under direct-mapped config")
	}
	faFit := map[string]int64{}
	for _, k := range faKnees {
		faFit[k.Dim+"|"+k.SD.String()] = k.LastFit
	}
	moved := false
	cfg := core.CacheConfig{CapacityElems: cache, Ways: 1}
	for _, k := range dmKnees {
		if fa, ok := faFit[k.Dim+"|"+k.SD.String()]; ok && k.LastFit != fa {
			moved = true
		}
		if k.LastFit == 0 {
			continue
		}
		// Self-consistency: re-evaluate the model at the reported last-fit
		// and require zero misses for every component carrying this SD.
		env := expr.Env{}
		for kk, vv := range base {
			env[kk] = vv
		}
		env[k.Dim] = k.LastFit
		rep, err := a.PredictMissesFrameConfig(a.SymTab().FrameOf(env), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range a.Components {
			if c.SD.Base.IsInf() || c.SD.String() != k.SD.String() {
				continue
			}
			if rep.Detail[ci].Misses != 0 {
				t.Errorf("%s last-fit %d: component %d (%s) predicts %d misses",
					k.Dim, k.LastFit, ci, k.SD, rep.Detail[ci].Misses)
			}
		}
	}
	if !moved {
		t.Errorf("no knee moved under a direct-mapped 512-element cache:\n%s", FormatKnees(dmKnees))
	}
	if _, err := KneeAnalysisConfig(a, base, matmulDims(64),
		core.CacheConfig{CapacityElems: cache, Ways: 3}); err == nil {
		t.Fatal("invalid geometry accepted")
	}
}

// TestSearchSetAssocUnknownBounds: the unknown-bounds reduction must compose
// with the conflict-aware path without error and give byte-identical results
// sequentially and with a worker pool.
func TestSearchSetAssocUnknownBounds(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	const n, cache = 64, 512
	opt := Options{
		Dims:          matmulDims(n),
		CacheElems:    cache,
		Ways:          2,
		BaseEnv:       expr.Env{"N": n},
		UnknownBounds: map[string]bool{"N": true},
		DivisorOf:     n,
	}
	var results [2]string
	for i, j := range []int{1, 8} {
		p := opt
		p.Parallelism = j
		res, err := Search(a, p)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		results[i] = marshal(t, res)
	}
	if results[0] != results[1] {
		t.Fatalf("unknown-bounds set-associative search differs across parallelism\nj=1: %s\nj=8: %s", results[0], results[1])
	}
}
