package core

import (
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/kernels"
)

func cachedMatmul(t *testing.T) *Analysis {
	t.Helper()
	nest, err := kernels.TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// ecTotal is the memoized fully-associative total at env.
func ecTotal(ec *EvalCache, env expr.Env, cacheElems int64) (int64, error) {
	return ec.PredictTotalFrameConfig(ec.Analysis().SymTab().FrameOf(env), CacheConfig{CapacityElems: cacheElems})
}

// TestEvalCacheHitsOnIrrelevantChanges: a component that mentions only a
// subset of the symbols must not be recomputed when an irrelevant symbol
// changes, so sweeping one tile dimension leaves most of the inventory
// cached.
func TestEvalCacheHitsOnIrrelevantChanges(t *testing.T) {
	a := cachedMatmul(t)
	ec := NewEvalCache(a)
	env := expr.Env{"N": 64, "TI": 8, "TJ": 8, "TK": 8}
	if _, err := ecTotal(ec, env, 512); err != nil {
		t.Fatal(err)
	}
	afterFirst := ec.Stats()
	if afterFirst.Computed != int64(len(a.Components)) {
		t.Fatalf("first evaluation computed %d of %d components",
			afterFirst.Computed, len(a.Components))
	}
	// Identical environment: all hits.
	if _, err := ecTotal(ec, env, 512); err != nil {
		t.Fatal(err)
	}
	if s := ec.Stats(); s.Computed != afterFirst.Computed {
		t.Fatalf("repeated evaluation recomputed: %d -> %d", afterFirst.Computed, s.Computed)
	}
	// Different capacities, same environment: entries store the capacity-
	// independent component values, so a capacity sweep computes nothing new.
	for _, capacity := range []int64{8, 64, 4096} {
		if _, err := ecTotal(ec, env, capacity); err != nil {
			t.Fatal(err)
		}
	}
	if s := ec.Stats(); s.Computed != afterFirst.Computed {
		t.Fatalf("capacity sweep recomputed: %d -> %d", afterFirst.Computed, s.Computed)
	}
	// Vary one tile: only components mentioning TI may recompute.
	env2 := env.Clone()
	env2["TI"] = 16
	if _, err := ecTotal(ec, env2, 512); err != nil {
		t.Fatal(err)
	}
	s := ec.Stats()
	recomputed := s.Computed - afterFirst.Computed
	ti, _ := a.SymTab().Lookup("TI")
	var mentionTI int64
	for i := range ec.comps {
		for _, slot := range ec.comps[i].slots {
			if slot == ti {
				mentionTI++
				break
			}
		}
	}
	if recomputed > mentionTI {
		t.Errorf("varying TI recomputed %d components, only %d mention TI", recomputed, mentionTI)
	}
	if recomputed == 0 {
		t.Error("varying TI recomputed nothing — key ignores the environment?")
	}
	if s.HitRate() <= 0 {
		t.Errorf("hit rate %.3f after repeated evaluations", s.HitRate())
	}
}

// TestEvalCacheConcurrent hammers one cache from many goroutines (run under
// -race) and checks the deterministic Computed count: duplicate concurrent
// evaluations of the same key must coalesce.
func TestEvalCacheConcurrent(t *testing.T) {
	a := cachedMatmul(t)
	ec := NewEvalCache(a)
	envs := []expr.Env{
		{"N": 64, "TI": 8, "TJ": 8, "TK": 8},
		{"N": 64, "TI": 16, "TJ": 8, "TK": 8},
		{"N": 64, "TI": 8, "TJ": 16, "TK": 8},
		{"N": 64, "TI": 8, "TJ": 8, "TK": 16},
	}
	want := make([]int64, len(envs))
	for i, env := range envs {
		want[i] = predictTotal(t, a, env, 512)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, env := range envs {
					got, err := ecTotal(ec, env, 512)
					if err != nil {
						t.Error(err)
						return
					}
					if got != want[i] {
						t.Errorf("env %v: concurrent total %d, want %d", env, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	s := ec.Stats()
	// Computed must equal the number of distinct keys, independent of the
	// interleaving: 4 envs differing in one tile each.
	direct := NewEvalCache(a)
	for _, env := range envs {
		if _, err := ecTotal(direct, env, 512); err != nil {
			t.Fatal(err)
		}
	}
	if s.Computed != direct.Stats().Computed {
		t.Errorf("concurrent Computed %d != sequential Computed %d",
			s.Computed, direct.Stats().Computed)
	}
}

// TestEvalCacheErrorPropagation: environments rejected by the nest (missing
// bindings) must error through the cache, not panic or return stale values.
func TestEvalCacheErrorPropagation(t *testing.T) {
	a := cachedMatmul(t)
	ec := NewEvalCache(a)
	if _, err := ecTotal(ec, expr.Env{"N": 64}, 512); err == nil {
		t.Fatal("missing tile bindings accepted")
	}
	// A good environment after the failure still works.
	env := expr.Env{"N": 64, "TI": 8, "TJ": 8, "TK": 8}
	want := predictTotal(t, a, env, 512)
	got, err := ecTotal(ec, env, 512)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("after error: %d vs %d", got, want)
	}
}
