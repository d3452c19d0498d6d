package tilesearch

import (
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/testutil"
)

// FuzzAnalyzeNoPanic feeds fuzzed loop-bound and tile-size values through
// the full model pipeline — core.AnalyzeWithOptions, PredictMisses and
// Search — and asserts the absence of panics and of negative miss counts.
// Inputs outside the model's class (tiles that do not divide the bound,
// absurd capacities) must surface as errors, never as panics or negative
// predictions.
//
// The seed corpus is taken from the worked examples: the tiled matmul of
// Table 3 (N=64, 8×8×8 tiles, 512-element cache) and the TCE two-index
// fusion example (occupied/virtual ranks 100 and 40, tiles from the fused
// chain demo).
func FuzzAnalyzeNoPanic(f *testing.F) {
	f.Add(int64(64), int64(8), int64(8), int64(8), int64(512), uint8(7))
	f.Add(int64(100), int64(40), int64(10), int64(4), int64(8192), uint8(7)) // TCE-fusion ranks
	f.Add(int64(32), int64(5), int64(3), int64(32), int64(1), uint8(0))      // non-dividing tiles
	f.Add(int64(1), int64(1), int64(1), int64(1), int64(1<<40), uint8(3))    // degenerate bound, huge cache
	f.Fuzz(func(t *testing.T, n, ti, tj, tk, cache int64, optBits uint8) {
		// Clamp to keep a single case fast; sign and divisibility stay
		// fuzzer-controlled.
		n = clamp(n, 1, 256)
		ti, tj, tk = clamp(ti, 1, n), clamp(tj, 1, n), clamp(tk, 1, n)
		cache = clamp(cache, 1, 1<<40)

		nest := testutil.TiledMatmulNest(t)
		opts := core.Options{
			CarrierCorrection: optBits&1 != 0,
			ComplementRule:    optBits&2 != 0,
			TailToHeadWrap:    optBits&4 != 0,
		}
		a, err := core.AnalyzeWithOptions(nest, opts)
		if err != nil {
			return // rejected programs are fine; panics are not
		}

		env := expr.Env{"N": n, "TI": ti, "TJ": tj, "TK": tk}
		if rep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), cache); err == nil {
			if rep.Total < 0 {
				t.Fatalf("negative total misses %d for env %v cache %d", rep.Total, env, cache)
			}
			if rep.Accesses < 0 {
				t.Fatalf("negative access count %d for env %v", rep.Accesses, env)
			}
			for _, d := range rep.Detail {
				if d.Misses < 0 || d.Count < 0 {
					t.Fatalf("negative component count/misses %+v for env %v cache %d", d, env, cache)
				}
				if d.Misses > d.Count {
					t.Fatalf("component misses %d exceed instances %d for env %v cache %d",
						d.Misses, d.Count, env, cache)
				}
			}
		}

		res, err := Search(a, Options{
			Dims:        []Dim{{"TI", n}, {"TJ", n}, {"TK", n}},
			CacheElems:  cache,
			BaseEnv:     expr.Env{"N": n},
			DivisorOf:   n,
			Parallelism: int(optBits%3) + 1,
		})
		if err == nil {
			if res.Best.Misses < 0 {
				t.Fatalf("search returned negative misses: %v", res.Best)
			}
			if res.Evaluated <= 0 {
				t.Fatalf("search evaluated nothing: %+v", res)
			}
		}
	})
}

func clamp(v, lo, hi int64) int64 {
	if v < 0 {
		v = -v
	}
	if v < 0 { // MinInt64
		return lo
	}
	v = lo + v%(hi-lo+1)
	return v
}
