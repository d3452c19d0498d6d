package tilesearch

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/testutil"
)

// matmulDims stays local (it names the package's Dim type); the nest and
// analysis fixtures themselves live in internal/testutil, shared with the
// validation and command tests.
func matmulDims(n int64) []Dim {
	return []Dim{{"TI", n}, {"TJ", n}, {"TK", n}}
}

func TestSearchBeatsExhaustiveGrid(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	const n = 64
	const cache = 512
	opt := Options{
		Dims:       matmulDims(n),
		CacheElems: cache,
		BaseEnv:    expr.Env{"N": n},
		DivisorOf:  n,
	}
	res, err := Search(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaustive power-of-two grid for comparison.
	best := int64(1) << 62
	var bestTiles [3]int64
	for _, ti := range []int64{4, 8, 16, 32, 64} {
		for _, tj := range []int64{4, 8, 16, 32, 64} {
			for _, tk := range []int64{4, 8, 16, 32, 64} {
				env := expr.Env{"N": n, "TI": ti, "TJ": tj, "TK": tk}
				rep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), cache)
				if err != nil {
					t.Fatal(err)
				}
				m := rep.Total
				if m < best {
					best = m
					bestTiles = [3]int64{ti, tj, tk}
				}
			}
		}
	}
	if res.Best.Misses > best {
		t.Errorf("search best %v worse than exhaustive best %d at %v",
			res.Best, best, bestTiles)
	}
	if res.Evaluated > 5*125 {
		t.Errorf("search evaluated %d points — pruning ineffective", res.Evaluated)
	}
}

func TestSearchImprovesOnEquiTiles(t *testing.T) {
	a := testutil.AnalyzedTwoIndex(t)
	const n = 256
	const cache = 8192 // 64 KB of doubles
	opt := Options{
		Dims:       []Dim{{"TI", n}, {"TJ", n}, {"TM", n}, {"TN", n}},
		CacheElems: cache,
		BaseEnv:    expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n},
		DivisorOf:  n,
	}
	res, err := Search(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, eq := range []int64{16, 32, 64, 128} {
		env := expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n,
			"TI": eq, "TJ": eq, "TM": eq, "TN": eq}
		rep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), cache)
		if err != nil {
			t.Fatal(err)
		}
		m := rep.Total
		if res.Best.Misses > m {
			t.Errorf("search best %v worse than equi-tile %d (%d misses)", res.Best, eq, m)
		}
	}
}

// TestUnknownBoundsStability reproduces Table 4's property: with large
// bounds, the tile sizes chosen with known bounds coincide with those chosen
// from bound-free stack distances only.
func TestUnknownBoundsStability(t *testing.T) {
	a := testutil.AnalyzedTwoIndex(t)
	const cache = 8192
	dims := func(max int64) []Dim {
		return []Dim{{"TI", max}, {"TJ", max}, {"TM", max}, {"TN", max}}
	}
	// Unknown-bounds search with a large surrogate.
	surrogate := int64(1 << 12)
	unk, err := Search(a, Options{
		Dims:       dims(512),
		CacheElems: cache,
		BaseEnv: expr.Env{"NI": surrogate, "NJ": surrogate,
			"NM": surrogate, "NN": surrogate},
		UnknownBounds: map[string]bool{"NI": true, "NJ": true, "NM": true, "NN": true},
		DivisorOf:     surrogate,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Known-bounds search at two large sizes.
	for _, n := range []int64{512, 1024} {
		known, err := Search(a, Options{
			Dims:       dims(min64(n, 512)),
			CacheElems: cache,
			BaseEnv:    expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n},
			DivisorOf:  n,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The unknown-bounds tiles must be near-optimal under known bounds:
		// within 10% of the known-bounds optimum.
		env := expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n}
		for k, v := range unk.Best.Tiles {
			env[k] = v
		}
		rep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), cache)
		if err != nil {
			t.Fatal(err)
		}
		m := rep.Total
		if known.Best.Misses > 0 && float64(m) > 1.10*float64(known.Best.Misses) {
			t.Errorf("N=%d: unknown-bounds tiles %v give %d misses, known-bounds best %v",
				n, unk.Best.Tiles, m, known.Best)
		}
	}
}

func TestSearchValidation(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	if _, err := Search(a, Options{}); err == nil {
		t.Fatal("empty dims accepted")
	}
}

func TestCandidateString(t *testing.T) {
	c := Candidate{Tiles: map[string]int64{"TI": 64, "TJ": 16}, Misses: 42}
	if got := c.String(); got != "(TI=64, TJ=16) misses=42" {
		t.Fatalf("got %q", got)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
