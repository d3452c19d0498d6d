package tilesearch

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/nestgen"
	"repro/internal/obs"
	"repro/internal/tce"
	"repro/internal/testutil"
)

// oracleCacheStats is the reference count of one search's scored set: the
// key rule of a component memo written out directly. It rebuilds each
// scored candidate's frame from BaseEnv plus the tiles its cache key holds
// (8 little-endian bytes per dim, in Dims order) and keys
// every component by the values of the symbols its Count, SD base, slope
// and FreeRange mention; Computed is the number of distinct (component,
// key) pairs, Lookups the number of component evaluations.
func oracleCacheStats(ev *evaluator) CacheStats {
	a := ev.a
	names := make([][]string, len(a.Components))
	for i, c := range a.Components {
		vars := map[string]bool{}
		c.Count.Vars(vars)
		c.SD.Base.Vars(vars)
		if c.SD.Slope != nil {
			c.SD.Slope.Vars(vars)
		}
		if c.FreeRange != nil {
			c.FreeRange.Vars(vars)
		}
		for n := range vars {
			names[i] = append(names[i], n)
		}
		sort.Strings(names[i])
	}
	seen := map[string]bool{}
	var s CacheStats
	for key := range ev.cands {
		env := maps.Clone(ev.opt.BaseEnv)
		for d, dim := range ev.opt.Dims {
			env[dim.Symbol] = int64(binary.LittleEndian.Uint64([]byte(key[8*d:])))
		}
		f := a.SymTab().FrameOf(env)
		for i := range a.Components {
			var key strings.Builder
			fmt.Fprintf(&key, "%d:", i)
			for _, n := range names[i] {
				slot, _ := a.SymTab().Lookup(n)
				v, ok := f.Get(slot)
				fmt.Fprintf(&key, "%s=%d,%t;", n, v, ok)
			}
			s.Lookups++
			if !seen[key.String()] {
				seen[key.String()] = true
				s.Computed++
			}
		}
	}
	return s
}

// captureScored installs the scored-set hook for the rest of the test and
// returns the evaluators of the successful searches it sees, in order.
func captureScored(t *testing.T) *[]*evaluator {
	t.Helper()
	var evs []*evaluator
	testHookScored = func(ev *evaluator) { evs = append(evs, ev) }
	t.Cleanup(func() { testHookScored = nil })
	return &evs
}

// countCase runs one or more searches at a parallelism level against a
// registry and returns their results in completion order.
type countCase struct {
	name string
	run  func(t *testing.T, j int, m *obs.Metrics) []*Result
}

func searchCase(name string, a *core.Analysis, opt Options) countCase {
	return countCase{name, func(t *testing.T, j int, m *obs.Metrics) []*Result {
		opt.Parallelism, opt.Obs = j, m
		res, err := Search(a, opt)
		if err != nil {
			t.Fatal(err)
		}
		return []*Result{res}
	}}
}

// analyzedCCSD returns the tiled CCSD analysis and its environment at
// virtual range n and occupied range n/2.
func analyzedCCSD(t *testing.T, n int64) (*core.Analysis, expr.Env) {
	t.Helper()
	nest, err := kernels.TiledCCSD()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env, err := kernels.CCSDEnv(n, n/2, 4, 4, 4, 4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return a, env
}

func countCases(t *testing.T) []countCase {
	var cases []countCase
	geometries := []struct {
		name            string
		ways, lineElems int64
	}{{"fa", 0, 0}, {"2way", 2, 1}, {"8way", 8, 4}}
	matmul := testutil.AnalyzedMatmul(t)
	twoIndex := testutil.AnalyzedTwoIndex(t)
	ccsd, ccsdEnv := analyzedCCSD(t, 16)
	for _, g := range geometries {
		cases = append(cases,
			searchCase("matmul-"+g.name, matmul, Options{
				Dims: matmulDims(64), CacheElems: 512, Ways: g.ways, LineElems: g.lineElems,
				BaseEnv: expr.Env{"N": 64},
			}),
			searchCase("twoindex-"+g.name, twoIndex, Options{
				Dims:       []Dim{{"TI", 64}, {"TJ", 64}, {"TM", 64}, {"TN", 64}},
				CacheElems: 1024, Ways: g.ways, LineElems: g.lineElems,
				BaseEnv: expr.Env{"NI": 64, "NJ": 64, "NM": 64, "NN": 64}, DivisorOf: 64,
			}),
			searchCase("ccsd-"+g.name, ccsd, Options{
				Dims:       []Dim{{"TA", 16}, {"TB", 16}, {"TC", 16}, {"TD", 16}, {"TI", 8}, {"TJ", 8}},
				CacheElems: 256, Ways: g.ways, LineElems: g.lineElems,
				BaseEnv: ccsdEnv, MinTile: 2,
			}))
	}
	cases = append(cases,
		searchCase("matmul-unknown-bounds", matmul, Options{
			Dims: matmulDims(64), CacheElems: 512, BaseEnv: expr.Env{"N": 1 << 20},
			UnknownBounds: map[string]bool{"N": true},
		}),
		searchCase("twoindex-unknown-bounds-2way", twoIndex, Options{
			Dims:       []Dim{{"TI", 64}, {"TJ", 64}, {"TM", 64}, {"TN", 64}},
			CacheElems: 1024, Ways: 2, BaseEnv: expr.Env{"NI": 4096, "NJ": 4096, "NM": 4096, "NN": 4096},
			UnknownBounds: map[string]bool{"NI": true, "NJ": true, "NM": true, "NN": true},
		}),
		countCase{"exhaustive-matmul", func(t *testing.T, j int, m *obs.Metrics) []*Result {
			res, err := Exhaustive(matmul, Options{
				Dims: matmulDims(24), CacheElems: 512, Ways: 2, BaseEnv: expr.Env{"N": 24},
				DivisorOf: 24, Parallelism: j, Obs: m,
			})
			if err != nil {
				t.Fatal(err)
			}
			return []*Result{res}
		}},
	)
	matmulNaive, err := kernels.Matmul()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := tce.UnfusedTwoIndex(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		name            string
		nest            *loopir.Nest
		env             expr.Env
		ways, lineElems int64
	}{
		{"twoindexchain", chain, expr.Env{"N": 32, "V": 16}, 0, 0},
		{"matmul-naive-8way", matmulNaive, expr.Env{"N": 64}, 8, 4},
	} {
		cases = append(cases, countCase{"plans-" + p.name, func(t *testing.T, j int, m *obs.Metrics) []*Result {
			pr, err := SearchPlans(p.nest, PlanOptions{
				Options: Options{CacheElems: 1024, Ways: p.ways, LineElems: p.lineElems, BaseEnv: p.env,
					Parallelism: j, Obs: m},
				Permute: true, Fuse: true, AutoTile: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			var out []*Result
			for _, v := range pr.Variants {
				out = append(out, v.Result)
			}
			return out
		}})
	}
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 16; i++ {
		nest, env := testutil.GenerateNest(t, r, i, nestgen.Config{Tiled: true})
		a, err := core.Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		var dims []Dim
		for _, sym := range nest.SymbolNames() {
			if strings.HasPrefix(sym, "T") {
				dims = append(dims, Dim{sym, env["N"+strings.TrimPrefix(sym, "T")]})
			}
		}
		g := geometries[i%len(geometries)]
		cases = append(cases, searchCase(fmt.Sprintf("nestgen-%d-%s", i, g.name), a, Options{
			Dims: dims, CacheElems: 64, Ways: g.ways, LineElems: g.lineElems, BaseEnv: env, MinTile: 1,
		}))
	}
	return cases
}

// TestCacheStatsMatchOracle: every search's Result.CacheStats equals the oracle's
// count of its scored set, the evalcache.* instruments equal the sum over
// the searches a call ran, and both are the same at Parallelism 1 and 8.
func TestCacheStatsMatchOracle(t *testing.T) {
	for _, tc := range countCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var first CacheStats
			for _, j := range []int{1, 8} {
				evs := captureScored(t)
				m := obs.New()
				results := tc.run(t, j, m)
				if len(*evs) != len(results) {
					t.Fatalf("j=%d: hook saw %d searches, call returned %d results", j, len(*evs), len(results))
				}
				var total CacheStats
				for i, ev := range *evs {
					want := oracleCacheStats(ev)
					if got := results[i].CacheStats; got != want {
						t.Errorf("j=%d search %d: Cache %+v, oracle %+v", j, i, got, want)
					}
					total.Lookups += want.Lookups
					total.Computed += want.Computed
				}
				c := m.Counters()
				for name, want := range map[string]int64{
					"evalcache.lookups":     total.Lookups,
					"evalcache.hits":        total.Lookups - total.Computed,
					"evalcache.misses":      total.Computed,
					"evalcache.frame_evals": total.Computed,
					"evalcache.coalesced":   0,
				} {
					if got, ok := c[name]; !ok || got != want {
						t.Errorf("j=%d: %s = %d (registered %t), want %d", j, name, got, ok, want)
					}
				}
				if got := m.Gauge("evalcache.entries").Load(); got != total.Computed {
					t.Errorf("j=%d: evalcache.entries = %d, want %d", j, got, total.Computed)
				}
				if j == 1 {
					first = total
				} else if total != first {
					t.Errorf("counts differ by parallelism: j=1 %+v, j=%d %+v", first, j, total)
				}
			}
		})
	}
}

// TestCacheStatsFailedSearchRecordsNothing: a search that fails returns no
// result, so it records no evalcache.* instruments.
func TestCacheStatsFailedSearchRecordsNothing(t *testing.T) {
	m := obs.New()
	_, err := Search(testutil.AnalyzedMatmul(t), Options{
		Dims: []Dim{{"TI", 64}, {"TJ", 64}}, CacheElems: 512, BaseEnv: expr.Env{"N": 64}, Obs: m,
	})
	if err == nil {
		t.Fatal("search with TK unbound succeeded")
	}
	for _, name := range metricNames(m) {
		if strings.Contains(name, "evalcache.") {
			t.Errorf("failed search registered %s", name)
		}
	}
}
