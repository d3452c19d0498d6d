package tilesearch

import (
	"fmt"

	"repro/internal/core"
)

// Exhaustive evaluates every tile assignment over the full divisor grid
// (all divisors of DivisorOf up to each dimension's Max; all powers of two
// when DivisorOf is zero) and returns the true optimum over that grid. It
// exists as the baseline the §6 search is measured against: the search must
// match its result while evaluating fewer points.
//
// The grid is enumerated in deterministic row-major order, scored as one
// batch on the worker pool (Options.Parallelism), and reduced sequentially,
// so ties break toward the earliest grid point exactly as a nested
// sequential sweep would.
func Exhaustive(a *core.Analysis, opt Options) (*Result, error) {
	if len(opt.Dims) == 0 {
		return nil, fmt.Errorf("tilesearch: no dimensions to search")
	}
	if err := opt.prepare(1); err != nil {
		return nil, err
	}
	ev := newEvaluator(a, opt)
	grid := make([][]int64, len(opt.Dims))
	for i, d := range opt.Dims {
		if opt.DivisorOf != 0 {
			for s := opt.MinTile; s <= d.Max; s++ {
				if opt.DivisorOf%s == 0 {
					grid[i] = append(grid[i], s)
				}
			}
		} else {
			for s := opt.MinTile; s <= d.Max; s *= 2 {
				grid[i] = append(grid[i], s)
			}
		}
		if len(grid[i]) == 0 {
			return nil, fmt.Errorf("tilesearch: empty grid for %s", d.Symbol)
		}
	}
	assigns := enumerate(grid)
	opt.Obs.Counter("search.candidates.exhaustive").Add(int64(len(assigns)))
	span := opt.Trace.Start("search.exhaustive")
	span.SetAttr("candidates", int64(len(assigns)))
	cands, err := ev.evalBatch(assigns)
	span.End()
	if err != nil {
		return nil, err
	}
	best := bestOf(cands)
	opt.Obs.Gauge("search.evaluated").Set(int64(len(ev.cands)))
	return ev.result(best, nil), nil
}
