// Package repro is a from-scratch Go reproduction of "Cache Miss
// Characterization and Data Locality Optimization for Imperfectly Nested
// Loops on Shared Memory Multiprocessors" (Sahoo, Panuganti,
// Krishnamoorthy, Sadayappan; IPPS/IPDPS 2005).
//
// The library characterizes the cache behaviour of imperfectly nested loop
// programs — the class generated by the Tensor Contraction Engine — at
// compile time, using symbolic stack distances, and applies the model to
// tile-size selection and shared-memory parallelization. Everything is
// implemented from scratch on the standard library: the symbolic algebra,
// the loop IR, an exact LRU stack-distance cache simulator (the ground
// truth the model is validated against), the analytical model itself, the
// tile-size search, the SMP cost models, and a miniature TCE front end.
//
// Entry points, in the order a new user meets them:
//
//   - Build a loop nest with the loopir helpers or a kernels builder, then
//     Analyze it: the result is a symbolic inventory of reuse components
//     with instance counts and stack distances.
//   - PredictMisses evaluates the analysis against concrete bounds, tile
//     sizes and a cache capacity.
//   - SimulateMisses runs the exact reference trace through the
//     fully-associative LRU simulator, for validation.
//   - SearchTiles runs the §6 tile-size search.
//   - PredictParallel applies the §7 SMP cost models.
//
// The underlying packages (internal/...) carry the full API; this package
// re-exports the types and operations a downstream user needs.
package repro

import (
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/smp"
	"repro/internal/tilesearch"
	"repro/internal/validate"
)

// Core model types.
type (
	// Nest is an imperfectly nested loop program.
	Nest = loopir.Nest
	// Analysis is the symbolic cache model of a nest.
	Analysis = core.Analysis
	// Component is one reuse partition of a reference's instances.
	Component = core.Component
	// MissReport is the evaluation of an Analysis at concrete parameters.
	MissReport = core.MissReport
	// Env binds symbols (loop bounds, tile sizes) to values.
	Env = expr.Env
	// Expr is a symbolic integer expression.
	Expr = expr.Expr
	// SimResults holds exact simulation results.
	SimResults = cachesim.Results
	// TileSearchOptions configures the tile-size search.
	TileSearchOptions = tilesearch.Options
	// TileSearchResult is the outcome of a tile-size search.
	TileSearchResult = tilesearch.Result
	// TileDim is one tunable tile dimension.
	TileDim = tilesearch.Dim
	// SMPConfig describes a parallel run to predict.
	SMPConfig = smp.Config
	// SMPPrediction is a parallel time prediction.
	SMPPrediction = smp.Prediction
)

// Analyze partitions every array reference of the nest into reuse
// components and computes their symbolic stack distances (the paper's §5).
func Analyze(nest *Nest) (*Analysis, error) { return core.Analyze(nest) }

// PredictMisses evaluates the model at concrete loop bounds and tile sizes
// against a fully-associative LRU cache of cacheElems elements.
func PredictMisses(a *Analysis, env Env, cacheElems int64) (*MissReport, error) {
	return a.PredictMissesFrame(a.SymTab().FrameOf(env), cacheElems)
}

// SimulateMisses generates the exact reference trace of the nest under env
// and plays it through the exact LRU stack simulator, returning miss counts
// for each watched cache capacity. This is the SimpleScalar-equivalent
// ground truth. An address space above 1<<28 elements is refused before
// the simulator is sized.
func SimulateMisses(nest *Nest, env Env, watchElems []int64) (SimResults, error) {
	return validate.Simulate(nest, env, watchElems, nil)
}

// SearchTiles runs the stack-distance-guided tile-size search of §6.
func SearchTiles(a *Analysis, opt TileSearchOptions) (*TileSearchResult, error) {
	return tilesearch.Search(a, opt)
}

// PredictParallel predicts shared-memory parallel execution time under the
// two limit cost models of §7.
func PredictParallel(a *Analysis, env Env, cfg SMPConfig) (*SMPPrediction, error) {
	return smp.Predict(a, env, cfg)
}

// TiledMatmul returns the paper's Fig. 2 kernel: 6-deep tiled matrix
// multiplication with symbols N, TI, TJ, TK.
func TiledMatmul() (*Nest, error) { return kernels.TiledMatmul() }

// TiledTwoIndex returns the paper's Fig. 6 kernel: the tiled fused
// two-index transform with symbols NI, NJ, NM, NN, TI, TJ, TM, TN.
func TiledTwoIndex() (*Nest, error) {
	return kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
}
