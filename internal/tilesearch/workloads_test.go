package tilesearch_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/tilesearch"
)

// TestJointBeatsTileOnly extends TestJointNeverWorseThanTileOnly to
// untiled paper kernels at realistic geometries, where the structural axes
// must win outright: fusing the unfused two-index chain (the paper's Fig. 5
// to Fig. 6) at two sizes, and reordering and tiling the naive matmul
// against an 8-way cache. The tile-only baseline is the nest as written,
// scored by the same search with every structural axis off; the joint
// search scores that same identity variant first, so the two must agree.
func TestJointBeatsTileOnly(t *testing.T) {
	for _, wl := range []struct {
		name            string
		kernel          string
		n, cacheKB      int64
		ways, lineElems int64
	}{
		{"twoindexchain-n32", "twoindexchain", 32, 2, 0, 0},
		{"twoindexchain-n64", "twoindexchain", 64, 8, 0, 0},
		{"matmul-naive-n128-8way", "matmul-naive", 128, 16, 8, 4},
	} {
		t.Run(wl.name, func(t *testing.T) {
			nest, env, err := experiments.BuildKernel(wl.kernel, wl.n, nil)
			if err != nil {
				t.Fatal(err)
			}
			opt := tilesearch.Options{
				CacheElems: experiments.KB(wl.cacheKB),
				Ways:       wl.ways,
				LineElems:  wl.lineElems,
				BaseEnv:    env,
			}
			joint, err := tilesearch.SearchPlans(nest, tilesearch.PlanOptions{
				Options: opt, Permute: true, Fuse: true, AutoTile: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			base, err := tilesearch.SearchPlans(nest, tilesearch.PlanOptions{Options: opt})
			if err != nil {
				t.Fatal(err)
			}
			jm := joint.Best().Result.Best.Misses
			bm := base.Best().Result.Best.Misses
			if jm >= bm {
				t.Errorf("joint %d misses (plan %s), tile-only %d: no structural win", jm, joint.Best().Plan, bm)
			}
			if got := joint.Baseline().Result.Best.Misses; got != bm {
				t.Errorf("joint identity variant %d misses, standalone tile-only %d", got, bm)
			}
		})
	}
}
