package core

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/expr"
)

// slotKey packs component i's slot bindings in f: the key under which a
// component memo would store its values, and the projection the tile
// search counts distinct evaluations by.
func slotKey(a *Analysis, f *expr.Frame, i int) string {
	var buf []byte
	for _, slot := range a.ComponentSlots(i) {
		v, ok := f.Get(slot)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		if ok {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return string(buf)
}

// TestEvalCacheConcurrent hammers one analysis from many goroutines (run
// under -race) the way the search's workers score candidates: each reuses
// its own frame across environments, and every total must equal the
// sequential one. The workers also store each component's values under its
// slot bindings in one shared table: a binding never maps to two values,
// and the number of distinct keys is the count derived from the tile
// symbols each component's expressions mention, whatever the interleaving.
func TestEvalCacheConcurrent(t *testing.T) {
	a := matmulAnalysis(t)
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
	type entry struct {
		comp     int
		bindings string
	}
	var table sync.Map // entry -> componentValues
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := a.NewFrame()
			for rep := 0; rep < 20; rep++ {
				for i, env := range envs {
					f.Reset()
					f.Bind(env)
					got, err := a.PredictTotalFrameConfig(f, CacheConfig{CapacityElems: 512})
					if err != nil {
						t.Error(err)
						return
					}
					if got != want[i] {
						t.Errorf("env %v: concurrent total %d, want %d", env, got, want[i])
						return
					}
					for c := range a.Components {
						v, err := a.ca.comps[c].evalComponentValuesFrame(f)
						if err != nil {
							t.Error(err)
							return
						}
						if prev, loaded := table.LoadOrStore(entry{c, slotKey(a, f, c)}, v); loaded && prev.(componentValues) != v {
							t.Errorf("env %v: component %d takes %+v and %+v under one slot binding",
								env, c, prev, v)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	var keys int64
	table.Range(func(any, any) bool { keys++; return true })
	// Every env but the first changes one tile of the first, so a component
	// has one binding per tile it mentions plus the shared one.
	var derived int64
	for _, c := range a.Components {
		vars := map[string]bool{}
		c.Count.Vars(vars)
		c.SD.Base.Vars(vars)
		if c.SD.Slope != nil {
			c.SD.Slope.Vars(vars)
		}
		if c.FreeRange != nil {
			c.FreeRange.Vars(vars)
		}
		derived++
		for _, tile := range []string{"TI", "TJ", "TK"} {
			if vars[tile] {
				derived++
			}
		}
	}
	if keys != derived {
		t.Errorf("concurrent workers stored %d distinct (component, bindings) keys, derived %d", keys, derived)
	}
}

// TestEvalCacheErrorPropagation: environments rejected by the nest (missing
// bindings) must error through the direct total query with
// PredictMissesFrameConfig's error, not panic or return the value of the
// previous binding, and the frame still scores correctly afterwards — the
// search reuses one frame per worker across candidates.
func TestEvalCacheErrorPropagation(t *testing.T) {
	a := matmulAnalysis(t)
	cfg := CacheConfig{CapacityElems: 512}
	env := expr.Env{"N": 64, "TI": 8, "TJ": 8, "TK": 8}
	want := predictTotal(t, a, env, 512)
	f := a.NewFrame()
	score := func() {
		t.Helper()
		f.Reset()
		f.Bind(env)
		got, err := a.PredictTotalFrameConfig(f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("total %d, want %d", got, want)
		}
	}
	score()
	f.Reset()
	f.Bind(expr.Env{"N": 64})
	total, err := a.PredictTotalFrameConfig(f, cfg)
	if err == nil {
		t.Fatalf("missing tile bindings accepted: total %d", total)
	}
	if _, repErr := a.PredictMissesFrameConfig(f, cfg); !sameError(err, repErr) {
		t.Errorf("total query error %q, report query error %v", err, repErr)
	}
	score()
}
