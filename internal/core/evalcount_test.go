package core_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/tilesearch"
)

// The tile search reports how many evaluations of this package's compiled
// component programs it ran on the "evalcache.*" instruments, named after
// the memo that once served them. These tests check the instruments of an
// exhaustive search, whose scored set is the whole tile grid, against a
// count derived from the components' expressions alone.

// gridValues is the number of tile sizes per dim of gridOptions' grid:
// the powers of two 1..16.
const gridValues = 5

func tiledMatmul(t *testing.T) *core.Analysis {
	t.Helper()
	nest, err := kernels.TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// gridOptions is the full TI×TJ×TK grid of the tiled matmul at N = 16 and
// the given capacity, scored on j workers and recorded on m.
func gridOptions(cacheElems int64, j int, m *obs.Metrics) tilesearch.Options {
	return tilesearch.Options{
		Dims:       []tilesearch.Dim{{Symbol: "TI", Max: 16}, {Symbol: "TJ", Max: 16}, {Symbol: "TK", Max: 16}},
		CacheElems: cacheElems, BaseEnv: expr.Env{"N": 16}, MinTile: 1,
		Parallelism: j, Obs: m,
	}
}

func exhaustiveMatmul(t *testing.T, a *core.Analysis, opt tilesearch.Options) *tilesearch.Result {
	t.Helper()
	res, err := tilesearch.Exhaustive(a, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// derivedStats is one search's count over gridOptions' grid: every grid point
// evaluates every component, and a component's distinct evaluations are the
// grid points of the tile dims its Count, SD and FreeRange mention.
func derivedStats(a *core.Analysis) tilesearch.CacheStats {
	s := tilesearch.CacheStats{Lookups: gridValues * gridValues * gridValues * int64(len(a.Components))}
	for _, c := range a.Components {
		vars := map[string]bool{}
		c.Count.Vars(vars)
		c.SD.Base.Vars(vars)
		if c.SD.Slope != nil {
			c.SD.Slope.Vars(vars)
		}
		if c.FreeRange != nil {
			c.FreeRange.Vars(vars)
		}
		n := int64(1)
		for _, tile := range []string{"TI", "TJ", "TK"} {
			if vars[tile] {
				n *= gridValues
			}
		}
		s.Computed += n
	}
	return s
}

// checkInstruments compares m's evalcache.* instruments with want.
func checkInstruments(t *testing.T, label string, m *obs.Metrics, want tilesearch.CacheStats) {
	t.Helper()
	c := m.Counters()
	for name, v := range map[string]int64{
		"evalcache.lookups":     want.Lookups,
		"evalcache.hits":        want.Lookups - want.Computed,
		"evalcache.misses":      want.Computed,
		"evalcache.frame_evals": want.Computed,
		"evalcache.coalesced":   0,
	} {
		if got, ok := c[name]; !ok || got != v {
			t.Errorf("%s: %s = %d (registered %t), want %d", label, name, got, ok, v)
		}
	}
	if c["evalcache.hits"]+c["evalcache.misses"] != c["evalcache.lookups"] {
		t.Errorf("%s: hits %d + misses %d != lookups %d",
			label, c["evalcache.hits"], c["evalcache.misses"], c["evalcache.lookups"])
	}
	if got := m.Gauge("evalcache.entries").Load(); got != want.Computed {
		t.Errorf("%s: evalcache.entries = %d, want %d", label, got, want.Computed)
	}
}

// TestEvalCacheMetricsInvariant: a sequential exhaustive search records
// lookups = grid points × components, misses = frame_evals = entries = the
// derived distinct evaluations, hits = lookups - misses and no coalesced
// waits. The grid shares tile values across candidates, so hits are not
// zero. Searches at three capacities into one registry add up: each counts
// its own scored set, and the capacity changes no count.
func TestEvalCacheMetricsInvariant(t *testing.T) {
	a := tiledMatmul(t)
	want := derivedStats(a)
	if want.Computed >= want.Lookups {
		t.Fatalf("derived count %+v shares no evaluation", want)
	}
	m := obs.New()
	var sum tilesearch.CacheStats
	for _, capacity := range []int64{256, 512, 1024} {
		res := exhaustiveMatmul(t, a, gridOptions(capacity, 1, m))
		if res.Evaluated != gridValues*gridValues*gridValues {
			t.Errorf("cache %d: evaluated %d grid points, want %d",
				capacity, res.Evaluated, gridValues*gridValues*gridValues)
		}
		if res.CacheStats != want {
			t.Errorf("cache %d: Result.CacheStats %+v, derived %+v", capacity, res.CacheStats, want)
		}
		sum.Lookups += want.Lookups
		sum.Computed += want.Computed
	}
	checkInstruments(t, "three capacities", m, sum)
}

// TestEvalCacheMetricsConcurrent: the counts do not depend on concurrency.
// A search at Parallelism 8 records what it records at Parallelism 1, and 8
// searches over one shared analysis, run at once into one registry, record
// exactly 8 times one search's counts.
func TestEvalCacheMetricsConcurrent(t *testing.T) {
	a := tiledMatmul(t)
	want := derivedStats(a)
	for _, j := range []int{1, 8} {
		m := obs.New()
		if res := exhaustiveMatmul(t, a, gridOptions(512, j, m)); res.CacheStats != want {
			t.Errorf("j=%d: Result.CacheStats %+v, derived %+v", j, res.CacheStats, want)
		}
		checkInstruments(t, fmt.Sprintf("j=%d", j), m, want)
	}
	m := obs.New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := tilesearch.Exhaustive(a, gridOptions(512, 1, m))
			if err != nil {
				t.Error(err)
				return
			}
			if res.CacheStats != want {
				t.Errorf("concurrent search: Result.CacheStats %+v, derived %+v", res.CacheStats, want)
			}
		}()
	}
	wg.Wait()
	checkInstruments(t, "8 concurrent searches", m,
		tilesearch.CacheStats{Lookups: 8 * want.Lookups, Computed: 8 * want.Computed})
}
