// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus micro-benchmarks for the substrates. The table/figure
// benchmarks regenerate the same rows/series the paper reports (through
// internal/experiments, which the cmd/ tools also use); the full-scale
// simulated validations, which take minutes, live behind the cmd tools and
// are reported in EXPERIMENTS.md — here simulation benchmarks run at a
// proportionally scaled size so `go test -bench=.` stays tractable.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/smp"
	"repro/internal/tilesearch"
	"repro/internal/trace"
)

// BenchmarkTable1Partitions regenerates Table 1: the symbolic component
// inventory (iteration-space partitions, instance counts, stack-distance
// expressions) of the tiled matrix multiplication.
func BenchmarkTable1Partitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nest, err := kernels.TiledMatmul()
		if err != nil {
			b.Fatal(err)
		}
		a, err := core.Analyze(nest)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Table()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2TwoIndexMisses regenerates the predicted-miss column of
// Table 2 (six two-index-transform configurations).
func BenchmarkTable2TwoIndexMisses(b *testing.B) {
	var rows []experiments.MissRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTable2(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	exact := 0
	for _, r := range rows {
		if r.Predicted == r.PaperPred {
			exact++
		}
	}
	b.ReportMetric(float64(exact), "rows-matching-paper")
}

// BenchmarkTable3MatmulMisses regenerates the predicted-miss column of
// Table 3 (six tiled-matmul configurations). All six match the paper's
// predictions exactly.
func BenchmarkTable3MatmulMisses(b *testing.B) {
	var rows []experiments.MissRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTable3(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	exact := 0
	for _, r := range rows {
		if r.Predicted == r.PaperPred {
			exact++
		}
	}
	b.ReportMetric(float64(exact), "rows-matching-paper")
}

// BenchmarkTable2SimulatedScaled runs one Table 2 row end to end —
// analytical prediction plus exact trace simulation — at 1/4 linear scale
// (N=64, cache scaled by the same factor in each dimension product).
func BenchmarkTable2SimulatedScaled(b *testing.B) {
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		b.Fatal(err)
	}
	env, err := kernels.TwoIndexEnv(64, 32, 16, 16, 32)
	if err != nil {
		b.Fatal(err)
	}
	const cache = 2048
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), cache)
		if err != nil {
			b.Fatal(err)
		}
		pred := predRep.Total
		p, err := trace.Compile(nest, env)
		if err != nil {
			b.Fatal(err)
		}
		sim := cachesim.NewStackSim(p.Size, len(p.Sites), []int64{cache})
		p.Run(sim.Access)
		m, err := sim.Results().MissesFor(cache)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rel := float64(pred-m) / float64(m)
			if rel < 0 {
				rel = -rel
			}
			b.ReportMetric(rel*100, "rel-err-%")
		}
	}
}

// BenchmarkTable3SimulatedScaled does the same for a scaled Table 3 row.
func BenchmarkTable3SimulatedScaled(b *testing.B) {
	nest, err := kernels.TiledMatmul()
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		b.Fatal(err)
	}
	env, err := kernels.MatmulEnv(64, 8, 8, 8)
	if err != nil {
		b.Fatal(err)
	}
	const cache = 1024
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		predRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), cache)
		if err != nil {
			b.Fatal(err)
		}
		pred := predRep.Total
		p, err := trace.Compile(nest, env)
		if err != nil {
			b.Fatal(err)
		}
		sim := cachesim.NewStackSim(p.Size, len(p.Sites), []int64{cache})
		p.Run(sim.Access)
		m, err := sim.Results().MissesFor(cache)
		if err != nil {
			b.Fatal(err)
		}
		_ = pred
		_ = m
	}
}

// BenchmarkTable4TileSearch regenerates a Table 4 row: the §6 tile-size
// search for the two-index transform with a 64 KB cache.
func BenchmarkTable4TileSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4([]int64{256})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatal("missing row")
		}
	}
}

// BenchmarkExhaustiveParallel scores the full 4-dimensional divisor grid of
// the two-index transform at several worker counts. Results are
// byte-identical across sub-benchmarks; compare their ns/op for the
// parallel speedup (visible only on multi-core hosts — a single-core host
// reports parity, measuring dispatch overhead instead). The cache-hit-%
// metric is the component-evaluation cache's share of avoided work.
func BenchmarkExhaustiveParallel(b *testing.B) {
	a, err := experiments.TwoIndexAnalysis()
	if err != nil {
		b.Fatal(err)
	}
	const n = 128
	opt := tilesearch.Options{
		Dims: []tilesearch.Dim{{Symbol: "TI", Max: n}, {Symbol: "TJ", Max: n},
			{Symbol: "TM", Max: n}, {Symbol: "TN", Max: n}},
		CacheElems: experiments.KB(64),
		BaseEnv:    expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n},
		DivisorOf:  n,
		MinTile:    2,
	}
	for _, j := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			o := opt
			o.Parallelism = j
			var res *tilesearch.Result
			for i := 0; i < b.N; i++ {
				res, err = tilesearch.Exhaustive(a, o)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Evaluated), "candidates")
			b.ReportMetric(100*res.Cache.HitRate(), "cache-hit-%")
		})
	}
}

// BenchmarkSearchParallel measures the pruned §6 search at several worker
// counts on the same 4-dimensional problem.
func BenchmarkSearchParallel(b *testing.B) {
	a, err := experiments.TwoIndexAnalysis()
	if err != nil {
		b.Fatal(err)
	}
	const n = 512
	opt := tilesearch.Options{
		Dims: []tilesearch.Dim{{Symbol: "TI", Max: n}, {Symbol: "TJ", Max: n},
			{Symbol: "TM", Max: n}, {Symbol: "TN", Max: n}},
		CacheElems: experiments.KB(64),
		BaseEnv:    expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n},
		DivisorOf:  n,
	}
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j=%d", j), func(b *testing.B) {
			o := opt
			o.Parallelism = j
			var res *tilesearch.Result
			for i := 0; i < b.N; i++ {
				res, err = tilesearch.Search(a, o)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Evaluated), "candidates")
			b.ReportMetric(100*res.Cache.HitRate(), "cache-hit-%")
		})
	}
}

// BenchmarkPredictMissesCached is BenchmarkPredictMisses through an
// EvalCache — the tile search's evaluation path. After the first iteration
// every component evaluation is a cache hit, so the delta against
// BenchmarkPredictMisses is the expression-evaluation cost the cache
// removes from the search's inner loop.
func BenchmarkPredictMissesCached(b *testing.B) {
	a, err := experiments.TwoIndexAnalysis()
	if err != nil {
		b.Fatal(err)
	}
	env, err := kernels.TwoIndexEnv(1024, 64, 16, 16, 64)
	if err != nil {
		b.Fatal(err)
	}
	ec := core.NewEvalCache(a)
	f := a.SymTab().FrameOf(env)
	cfg := core.CacheConfig{CapacityElems: 8192}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ec.PredictTotalFrameConfig(f, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*ec.Stats().HitRate(), "cache-hit-%")
}

// BenchmarkFig10SMP regenerates Figure 10: parallel time of the two-index
// transform at loop range 1024 across P ∈ {1,2,4,8} for equi-sized tiles
// and the model-predicted tile.
func BenchmarkFig10SMP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFigure(1024)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig11SMP regenerates Figure 11 (loop range 2048).
func BenchmarkFig11SMP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunFigure(2048)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkStackSimAccess measures the exact LRU stack simulator's
// per-access cost on a random trace.
func BenchmarkStackSimAccess(b *testing.B) {
	const space = 1 << 18
	r := rand.New(rand.NewSource(1))
	addrs := make([]int64, 1<<16)
	for i := range addrs {
		addrs[i] = int64(r.Intn(space))
	}
	sim := cachesim.NewStackSim(space, 1, []int64{8192})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Access(0, addrs[i&(len(addrs)-1)])
	}
}

// BenchmarkTraceGeneration measures reference-stream generation throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		b.Fatal(err)
	}
	env, err := kernels.TwoIndexEnv(64, 16, 16, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		b.Fatal(err)
	}
	n, _ := p.Length()
	b.SetBytes(n) // one "byte" per access for throughput reporting
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var count int64
		p.Run(func(_ int, _ int64) { count++ })
		if count != n {
			b.Fatal("trace length mismatch")
		}
	}
}

// BenchmarkAnalyzeTwoIndex measures full symbolic analysis of the paper's
// flagship imperfect nest.
func BenchmarkAnalyzeTwoIndex(b *testing.B) {
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(nest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictMisses measures one model evaluation (the inner loop of
// the tile search).
func BenchmarkPredictMisses(b *testing.B) {
	a, err := experiments.TwoIndexAnalysis()
	if err != nil {
		b.Fatal(err)
	}
	env, err := kernels.TwoIndexEnv(1024, 64, 16, 16, 64)
	if err != nil {
		b.Fatal(err)
	}
	f := a.SymTab().FrameOf(env)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.PredictMissesFrame(f, 8192); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeTwoIndexTiled measures the real floating-point kernel.
func BenchmarkNativeTwoIndexTiled(b *testing.B) {
	const n = 128
	a, c1, c2 := kernels.NewMatrix(n, n), kernels.NewMatrix(n, n), kernels.NewMatrix(n, n)
	a.FillSequential(0.1)
	c1.FillSequential(0.2)
	c2.FillSequential(0.3)
	out := kernels.NewMatrix(n, n)
	b.SetBytes(int64(4 * n * n * n / 1024)) // rough flop proxy
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kernels.TwoIndexTiled(a, c1, c2, out, 32, 16, 16, 32, 0, n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeTwoIndexParallel measures the goroutine-parallel executor
// (on a single-core host this exercises correctness and overhead, not
// speedup).
func BenchmarkNativeTwoIndexParallel(b *testing.B) {
	const n = 128
	a, c1, c2 := kernels.NewMatrix(n, n), kernels.NewMatrix(n, n), kernels.NewMatrix(n, n)
	a.FillSequential(0.1)
	c1.FillSequential(0.2)
	c2.FillSequential(0.3)
	out := kernels.NewMatrix(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := smp.RunParallelTwoIndex(a, c1, c2, out, 32, 16, 16, 32, 2); err != nil {
			b.Fatal(err)
		}
	}
}
