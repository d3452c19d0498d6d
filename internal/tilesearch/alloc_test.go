package tilesearch

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/testutil"
)

// The fix this file guards: candidate scoring used to build a fresh Env map
// (BaseEnv copy + tile merge) per candidate and tree-walk every expression.
// The frame path binds tile slots into a reused per-worker register file and
// runs compiled programs, so a warm evaluation allocates only the two cache
// key strings (candidate key + per-component keys).

func warmEvaluator(tb testing.TB) (*evaluator, map[string]int64) {
	tb.Helper()
	a := testutil.AnalyzedMatmul(tb)
	ev := newEvaluator(a, Options{
		Dims:       matmulDims(64),
		CacheElems: 512,
		BaseEnv:    expr.Env{"N": 64},
	})
	tiles := map[string]int64{"TI": 8, "TJ": 8, "TK": 8}
	if _, err := ev.eval(tiles, ev.seqFrame); err != nil {
		tb.Fatal(err)
	}
	return ev, tiles
}

// TestWarmCandidateEvalAllocs bounds the steady-state allocation cost of
// scoring an already-seen candidate: one tile-key string, nothing else. A
// regression to per-candidate Env maps shows up as several extra allocations
// per op.
func TestWarmCandidateEvalAllocs(t *testing.T) {
	ev, tiles := warmEvaluator(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ev.eval(tiles, ev.seqFrame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warm candidate eval allocates %.1f objects/op, want <= 2", allocs)
	}
}

// TestWarmFrameScoringAllocs bounds the cost of scoring a *new* evaluation
// of known component bindings through the frame path (the inner loop of the
// search once the eval cache is warm): at most one key string per component
// plus the candidate bookkeeping.
func TestWarmFrameScoringAllocs(t *testing.T) {
	ev, tiles := warmEvaluator(t)
	f := ev.seqFrame
	for i, d := range ev.opt.Dims {
		f.Set(ev.dimSlots[i], tiles[d.Symbol])
	}
	comps := len(ev.a.Components)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ev.ec.PredictTotalFrameConfig(f, ev.cfg); err != nil {
			t.Fatal(err)
		}
	})
	if max := float64(comps + 2); allocs > max {
		t.Errorf("warm frame scoring allocates %.1f objects/op over %d components, want <= %.0f",
			allocs, comps, max)
	}
}

// BenchmarkCandidateScoreFrame measures per-candidate scoring below the
// candidate cache: a fixed, fully warm candidate set, so each op is the slot
// stores plus the memoized component lookups.
func BenchmarkCandidateScoreFrame(b *testing.B) {
	ev, _ := warmEvaluator(b)
	tileSet := []map[string]int64{
		{"TI": 4, "TJ": 4, "TK": 4},
		{"TI": 8, "TJ": 8, "TK": 8},
		{"TI": 16, "TJ": 16, "TK": 16},
		{"TI": 8, "TJ": 16, "TK": 32},
	}
	f := ev.seqFrame
	for _, tiles := range tileSet {
		if _, err := ev.compute(tiles, f); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.compute(tileSet[i%len(tileSet)], f); err != nil {
			b.Fatal(err)
		}
	}
}
