// Package testutil provides the nest fixtures shared across test suites:
// the paper's kernels in analyzed form, the random-nest generator in a
// fail-fast wrapper, and the former canonical renderer the loopir and
// experiments tests check the once-rendered text against. The tile-search,
// validation and command tests all construct the same small set of nests;
// building them here keeps the construction in one place instead of
// per-file copies.
//
// The helpers take testing.TB, so they work from tests, benchmarks and
// fuzz targets alike, and fail the caller directly on construction errors
// (which are environment bugs, not conditions under test).
package testutil

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/nestgen"
)

// TiledMatmulNest returns the paper's Fig. 2 tiled matrix-multiplication
// nest (bounds N, tiles TI/TJ/TK).
func TiledMatmulNest(tb testing.TB) *loopir.Nest {
	tb.Helper()
	nest, err := kernels.TiledMatmul()
	if err != nil {
		tb.Fatal(err)
	}
	return nest
}

// AnalyzedMatmul returns the full-model analysis of the tiled matmul.
func AnalyzedMatmul(tb testing.TB) *core.Analysis {
	tb.Helper()
	a, err := core.Analyze(TiledMatmulNest(tb))
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// TiledTwoIndexNest returns the paper's Fig. 6 tiled fused two-index
// transform with symbolic bounds (NI/NJ/NM/NN, tiles TI/TJ/TM/TN).
func TiledTwoIndexNest(tb testing.TB) *loopir.Nest {
	tb.Helper()
	nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		tb.Fatal(err)
	}
	return nest
}

// AnalyzedTwoIndex returns the full-model analysis of the tiled two-index
// transform.
func AnalyzedTwoIndex(tb testing.TB) *core.Analysis {
	tb.Helper()
	a, err := core.Analyze(TiledTwoIndexNest(tb))
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// GenerateNest draws the i-th random nest from r, failing the test on
// generation errors. The (r, i, cfg) triple is the reproduction recipe:
// re-running with the same source state regenerates the same nest.
func GenerateNest(tb testing.TB, r *rand.Rand, i int, cfg nestgen.Config) (*loopir.Nest, expr.Env) {
	tb.Helper()
	nest, env, err := nestgen.Generate(r, i, cfg)
	if err != nil {
		tb.Fatalf("nest #%d: generation failed: %v", i, err)
	}
	return nest, env
}
