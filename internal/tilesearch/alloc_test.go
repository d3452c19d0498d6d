package tilesearch

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/tce"
	"repro/internal/testutil"
)

// The fix this file guards: candidate scoring used to build a fresh Env map
// (BaseEnv copy + tile merge) per candidate and tree-walk every expression,
// and the search used to clone a tile map per candidate. The frame path
// binds a tile vector into a reused per-worker register file and runs
// compiled programs, and the conflict model keeps its scratch on the stack,
// so scoring allocates nothing on any geometry, and a warm candidate lookup
// indexes the cache through a reused key buffer.

// allocGeometries are the cache geometries the allocation bounds cover:
// fully associative, and 2-way and 8-way at lines of 1 and 4 elements.
var allocGeometries = []struct{ ways, line int64 }{
	{0, 0}, {2, 1}, {2, 4}, {8, 1}, {8, 4},
}

func warmEvaluator(tb testing.TB, ways, line int64) (*evaluator, []int64) {
	tb.Helper()
	a := testutil.AnalyzedMatmul(tb)
	ev := newEvaluator(a, Options{
		Dims:       matmulDims(64),
		CacheElems: 512,
		Ways:       ways,
		LineElems:  line,
		BaseEnv:    expr.Env{"N": 64},
	})
	tiles := []int64{8, 8, 8} // TI, TJ, TK
	if _, err := ev.eval(tiles); err != nil {
		tb.Fatal(err)
	}
	return ev, tiles
}

// TestWarmCandidateEvalAllocs bounds the steady-state allocation cost of
// scoring an already-seen candidate: the key is built in the reused buffer
// and the lookup allocates nothing. A regression to per-candidate keys or
// Env maps shows up as allocations per op.
func TestWarmCandidateEvalAllocs(t *testing.T) {
	ev, tiles := warmEvaluator(t, 0, 0)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := ev.eval(tiles); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("warm candidate eval allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWarmFrameScoringAllocs bounds the cost of scoring a candidate below
// the candidate cache (the inner loop of the search): the slot stores, the
// compiled programs and, on a set-associative geometry, the conflict model
// allocate nothing.
func TestWarmFrameScoringAllocs(t *testing.T) {
	for _, g := range allocGeometries {
		t.Run(fmt.Sprintf("ways=%d/line=%d", g.ways, g.line), func(t *testing.T) {
			ev, tiles := warmEvaluator(t, g.ways, g.line)
			f := ev.seqFrame
			for i, v := range tiles {
				f.Set(ev.dimSlots[i], v)
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := ev.a.PredictTotalFrameConfig(f, ev.cfg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("warm frame scoring allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestSearchAllocsPerCandidate bounds a whole cold search: Search on the
// tiled matmul at N=256 allocates at most 4 objects per evaluated
// candidate (it reads 1.9): room for the cache's key strings and the
// batches' slices, but not for a tile map or conflict-model scratch per
// candidate, with which the same searches read 9.2 fully associative and
// about 40 set-associative.
func TestSearchAllocsPerCandidate(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	for _, g := range []struct{ ways, line int64 }{{0, 0}, {2, 4}, {8, 1}} {
		t.Run(fmt.Sprintf("ways=%d/line=%d", g.ways, g.line), func(t *testing.T) {
			opt := Options{
				Dims:       matmulDims(256),
				CacheElems: 4096,
				Ways:       g.ways,
				LineElems:  g.line,
				BaseEnv:    expr.Env{"N": 256},
				DivisorOf:  256,
			}
			var evaluated int
			allocs := testing.AllocsPerRun(5, func() {
				res, err := Search(a, opt)
				if err != nil {
					t.Fatal(err)
				}
				evaluated = res.Evaluated
			})
			if per := allocs / float64(evaluated); per > 4 {
				t.Errorf("search allocates %.1f objects per evaluated candidate (%.0f for %d), want <= 4",
					per, allocs, evaluated)
			}
		})
	}
}

// BenchmarkCandidateScoreFrame measures per-candidate scoring below the
// candidate cache: each op is the slot stores plus one compiled evaluation
// of every component.
func BenchmarkCandidateScoreFrame(b *testing.B) {
	ev, _ := warmEvaluator(b, 0, 0)
	tileSet := [][]int64{{4, 4, 4}, {8, 8, 8}, {16, 16, 16}, {8, 16, 32}}
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

// BenchmarkSearchAssoc times one cold set-associative Search per op: the
// tiled matmul at N=256 and the tiled two-index transform at N=64, 2-way
// and 8-way, 4-element lines, 32 KB of 8-byte elements.
func BenchmarkSearchAssoc(b *testing.B) {
	kernels := []struct {
		name string
		a    *core.Analysis
		opt  Options
	}{
		{"matmul-n256", testutil.AnalyzedMatmul(b), Options{
			Dims: matmulDims(256), BaseEnv: expr.Env{"N": 256}, DivisorOf: 256,
		}},
		{"twoindex-n64", testutil.AnalyzedTwoIndex(b), Options{
			Dims:    []Dim{{"TI", 64}, {"TJ", 64}, {"TM", 64}, {"TN", 64}},
			BaseEnv: expr.Env{"NI": 64, "NJ": 64, "NM": 64, "NN": 64}, DivisorOf: 64,
		}},
	}
	for _, k := range kernels {
		for _, ways := range []int64{2, 8} {
			opt := k.opt
			opt.CacheElems, opt.Ways, opt.LineElems = 4096, ways, 4
			b.Run(fmt.Sprintf("%s/ways=%d", k.name, ways), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Search(k.a, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSearchPlans times one cold joint plan search per op (permute,
// fuse and auto-tile, every variant analyzed afresh): the plain matmul and
// the unfused two-index chain at n=64, fully associative and 2-way with
// 4-element lines, 32 KB of 8-byte elements.
func BenchmarkSearchPlans(b *testing.B) {
	matmulNaive, err := kernels.Matmul()
	if err != nil {
		b.Fatal(err)
	}
	chain, err := tce.UnfusedTwoIndex(nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []struct {
		name string
		nest *loopir.Nest
		env  expr.Env
	}{
		{"matmul-naive-n64", matmulNaive, expr.Env{"N": 64}},
		{"twoindexchain-n64", chain, expr.Env{"N": 64, "V": 32}},
	} {
		for _, ways := range []int64{0, 2} {
			opt := PlanOptions{
				Options: Options{CacheElems: 4096, Ways: ways, LineElems: 4, BaseEnv: k.env},
				Permute: true, Fuse: true, AutoTile: true,
			}
			b.Run(fmt.Sprintf("%s/ways=%d", k.name, ways), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := SearchPlans(k.nest, opt); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
