package experiments

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/tilesearch"
)

// JointResult is the outcome of the compound model-driven optimization: for
// each loop order of the matmul, strip-mine it and search tile sizes; the
// globally best (order, tiles) pair is what a model-driven compiler would
// emit. This composes the two transformations the paper's introduction
// motivates ("accurate cache models that can be effectively used by
// compilers in performing loop transformations").
type JointResult struct {
	Order  string
	Tiles  map[string]int64
	Misses int64
	// PerOrder records each order's best, for inspection.
	PerOrder map[string]tilesearch.Candidate
}

// RunJointOptimization evaluates all six matmul loop orders, tiling each.
// It is a view over the general plan search (tilesearch.SearchPlans with
// the permutation and auto-tiling axes enabled): the tiled permutation
// variants are exactly the old hand-rolled permute-then-strip-mine sweep.
func RunJointOptimization(n int64, cacheElems int64) (*JointResult, error) {
	base, err := kernels.Matmul()
	if err != nil {
		return nil, err
	}
	pr, err := tilesearch.SearchPlans(base, tilesearch.PlanOptions{
		Options: tilesearch.Options{
			CacheElems: cacheElems,
			BaseEnv:    expr.Env{"N": n},
			DivisorOf:  n,
		},
		Permute:  true,
		AutoTile: true,
	})
	if err != nil {
		return nil, err
	}
	res := &JointResult{PerOrder: map[string]tilesearch.Candidate{}, Misses: 1 << 62}
	for _, v := range pr.Variants {
		if len(v.Result.Best.Tiles) == 0 {
			continue // untiled structural variant; PerOrder compares tiled optima
		}
		order := []string{"i", "j", "k"}
		for _, st := range v.Plan {
			if st.Op == "permute" {
				order = st.Order
			}
		}
		key := strings.Join(order, "-")
		res.PerOrder[key] = v.Result.Best
		if v.Result.Best.Misses < res.Misses {
			res.Misses = v.Result.Best.Misses
			res.Order = key
			res.Tiles = v.Result.Best.Tiles
		}
	}
	return res, nil
}

func TestJointOptimization(t *testing.T) {
	const n, cache = 64, 512
	res, err := RunJointOptimization(n, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOrder) != 6 {
		t.Fatalf("%d orders evaluated", len(res.PerOrder))
	}
	if res.Order == "" || len(res.Tiles) != 3 {
		t.Fatalf("degenerate result %+v", res)
	}
	// The global best is no worse than any per-order best.
	for ord, cand := range res.PerOrder {
		if res.Misses > cand.Misses {
			t.Errorf("global best %d worse than order %s's %d", res.Misses, ord, cand.Misses)
		}
	}
	// Tiling equalizes the orders: every order's tiled optimum must be
	// within 2x of the best (tiling absorbs most of the order sensitivity).
	for ord, cand := range res.PerOrder {
		if cand.Misses > 2*res.Misses {
			t.Errorf("order %s optimum %d more than 2x the best %d — tiling failed to absorb order",
				ord, cand.Misses, res.Misses)
		}
	}
}
