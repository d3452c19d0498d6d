// Package tilesearch implements the paper's §6 tile-size search: an
// intelligent search over tile-size space driven by the symbolic
// stack-distance expressions of the cache model, rather than exhaustive
// enumeration or empirical trial runs.
//
// The search exploits the four-phase structure of the miss count as a
// function of tile size: misses decrease monotonically as tiles grow until
// some stack distance crosses the cache capacity, at which point they jump.
// Only "frontier" tile sizes — those that cannot be increased in any
// dimension without an additional stack distance exceeding the cache — can
// be optimal, so the search (1) sweeps a coarse grid, (2) keeps the
// frontier, (3) refines around it with halved steps, and (4) prunes
// dominated candidates.
//
// When loop bounds are unknown at compile time (the paper's Table 4), the
// search scores candidates using only the stack-distance expressions that do
// not mention the bound symbols, evaluated with a large surrogate bound.
//
// Each distinct tile vector is scored once per search, straight through the
// analysis' compiled programs (see engine.go), and scoring can be spread
// over a worker pool with Options.Parallelism; results are deterministic
// and identical across parallelism levels.
package tilesearch

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/obs"
)

// Dim describes one tunable tile dimension.
type Dim struct {
	Symbol string // tile-size symbol, e.g. "TI"
	Max    int64  // largest size to consider (typically the loop bound)
}

// Options configures a search.
type Options struct {
	// Dims are the tile dimensions to tune.
	Dims []Dim
	// CacheElems is the cache capacity in elements.
	CacheElems int64
	// Ways, when non-zero, scores candidates against a set-associative
	// geometry (core.CacheConfig{CacheElems, Ways, LineElems}) through the
	// conflict-aware prediction path, so the search can steer away from
	// pathological power-of-two strides. Zero keeps the fully-associative
	// model, byte-identical to earlier releases.
	Ways int64
	// LineElems is the cache line size in elements for the set-associative
	// geometry; it only takes effect alongside Ways (0 means one-element
	// lines).
	LineElems int64
	// BaseEnv binds every non-tile symbol (loop bounds). In unknown-bounds
	// mode these are surrogate values.
	BaseEnv expr.Env
	// CoarseStep is the initial grid step factor; tile sizes sweep powers
	// of two from MinTile to Dim.Max. MinTile defaults to 4.
	MinTile int64
	// UnknownBounds, when set, restricts scoring to components whose
	// stack-distance expressions avoid these symbols (the loop bounds),
	// reproducing the paper's compile-time search with symbolic bounds.
	UnknownBounds map[string]bool
	// DivisorOf, when non-zero, restricts tile sizes to divisors of this
	// value (exact tiling). Defaults to requiring power-of-two sizes only.
	DivisorOf int64
	// Parallelism is the number of concurrent model-evaluation workers.
	// 0 and 1 evaluate sequentially; negative values use GOMAXPROCS. The
	// search result is byte-identical at every parallelism level.
	Parallelism int
	// Context, when non-nil, cancels an in-flight search; Search and
	// Exhaustive then return the context's error.
	Context context.Context
	// Obs, when non-nil, receives the instruments of a successful search:
	// its Phases (candidate counts per phase "search.candidates.*", the
	// frontier size, pruning totals), its component-evaluation counts
	// ("evalcache.*", see CacheStats.Record), and the per-worker pool
	// utilization ("worker.*", the only instruments that legitimately vary
	// with Parallelism). Nil disables instrumentation at no measurable cost.
	Obs *obs.Metrics
	// Trace, when non-nil, records one span per search phase (coarse,
	// frontier, each refinement round) annotated with candidate counts.
	Trace *obs.Trace
	// Progress, when non-nil, is invoked synchronously from the search
	// goroutine after each phase completes: once for the coarse sweep, once
	// for the frontier cut, and once per refinement round. Events arrive in
	// a deterministic order with deterministic contents at every
	// Parallelism level (each phase is a barrier), which is what lets the
	// serving layer stream them as incremental NDJSON records.
	Progress func(ProgressEvent)
}

// ProgressEvent reports one completed search phase to Options.Progress;
// /v1/tilesearch?stream=1 streams it as one NDJSON record.
type ProgressEvent struct {
	Phase      string    `json:"phase"`           // "coarse", "frontier" or "refine"
	Round      int64     `json:"round,omitempty"` // refinement round (1-based); 0 for coarse/frontier
	Candidates int64     `json:"candidates"`      // candidates evaluated in this phase (frontier: survivors)
	Best       Candidate `json:"best"`            // best candidate known after this phase
}

// cacheConfig packs the cache geometry options into a core.CacheConfig.
// With Ways zero this is a fully-associative config and every scoring path
// stays on the capacity-only model.
func (opt Options) cacheConfig() core.CacheConfig {
	return core.CacheConfig{
		CapacityElems: opt.CacheElems,
		Ways:          opt.Ways,
		LineElems:     opt.LineElems,
	}
}

// prepare checks the cache geometry and fills the defaults every entry
// point shares: MinTile (minTile when unset) and a background Context.
func (opt *Options) prepare(minTile int64) error {
	if err := opt.cacheConfig().Validate(); err != nil {
		return err
	}
	if opt.MinTile <= 0 {
		opt.MinTile = minTile
	}
	if opt.Context == nil {
		opt.Context = context.Background()
	}
	return nil
}

// Candidate is one evaluated tile assignment. Tiles marshals as a JSON
// object with sorted keys, so equal candidates marshal to equal bytes.
type Candidate struct {
	Tiles  map[string]int64 `json:"tiles"`
	Misses int64            `json:"misses"`
}

// Result reports the search outcome. It marshals as the "result" of a
// /v1/tilesearch response; every field is deterministic for a given
// search, at every parallelism level.
type Result struct {
	Best      Candidate   `json:"best"`
	Frontier  []Candidate `json:"frontier"`  // frontier candidates from the coarse phase
	Evaluated int         `json:"evaluated"` // distinct tile assignments scored
	// CacheStats counts the component evaluations behind Evaluated.
	CacheStats
	// Phases counts the work of Search's phases; zero for Exhaustive and
	// for untiled plan variants.
	Phases Phases `json:"-"`
}

// Phases counts a search's candidates phase by phase: the "phases" of a
// /v1/tilesearch response, and what a successful search records on the
// search.* instruments.
type Phases struct {
	Coarse       int64 `json:"coarse"`       // coarse-grid candidates
	Refine       int64 `json:"refine"`       // refinement candidates, all rounds
	FrontierSize int64 `json:"frontierSize"` // frontier candidates kept
	Probes       int64 `json:"probes"`       // frontier-detection probe evaluations
	Pruned       int64 `json:"pruned"`       // candidates pruned between rounds
	Evaluated    int64 `json:"evaluated"`    // distinct tile assignments scored
}

// record adds the counts to the search.* instruments. The refinement
// counters exist only when a refinement round ran.
func (p Phases) record(m *obs.Metrics, refined bool) {
	m.Counter("search.candidates.coarse").Add(p.Coarse)
	m.Counter("search.candidates.frontier").Add(p.Probes)
	m.Gauge("search.frontier.size").Set(p.FrontierSize)
	if refined {
		m.Counter("search.candidates.refine").Add(p.Refine)
		m.Counter("search.pruned").Add(p.Pruned)
	}
	m.Gauge("search.evaluated").Set(p.Evaluated)
}

// Search runs the §6 algorithm against an analyzed nest. It is the
// tile-only entry point — a single structural variant; SearchPlans
// (plansearch.go) runs this same phase machinery once per legal structural
// variant, each with its own compiled analysis and evaluator.
func Search(a *core.Analysis, opt Options) (*Result, error) {
	if len(opt.Dims) == 0 {
		return nil, fmt.Errorf("tilesearch: no dimensions to search")
	}
	if err := opt.prepare(4); err != nil {
		return nil, err
	}
	return newEvaluator(a, opt).run()
}

// run executes the four phases against the evaluator's analysis and
// options. Phases are barriers: each batch is evaluated (possibly in
// parallel) and reduced in input order, so the result — including
// tie-breaks — is byte-identical at every parallelism level.
func (ev *evaluator) run() (*Result, error) {
	opt := ev.opt
	var ph Phases

	// Phase 1: coarse sweep over power-of-two sizes.
	grid := make([][]int64, len(opt.Dims))
	for i, d := range opt.Dims {
		for s := opt.MinTile; s <= d.Max; s *= 2 {
			if opt.DivisorOf != 0 && opt.DivisorOf%s != 0 {
				continue
			}
			grid[i] = append(grid[i], s)
		}
		if len(grid[i]) == 0 {
			grid[i] = []int64{opt.MinTile}
		}
	}
	coarseAssigns := enumerate(grid)
	ph.Coarse = int64(len(coarseAssigns))
	span := opt.Trace.Start("search.coarse")
	span.SetAttr("candidates", ph.Coarse)
	coarse, err := ev.evalBatch(coarseAssigns)
	span.End()
	if err != nil {
		return nil, err
	}
	if opt.Progress != nil {
		opt.Progress(ProgressEvent{Phase: "coarse", Candidates: ph.Coarse, Best: ev.candidate(bestOf(coarse))})
	}

	// Phase 2: keep the frontier — candidates whose every single-dimension
	// doubling either leaves the grid or pushes an additional stack
	// distance past the cache capacity (detected as a miss increase).
	span = opt.Trace.Start("search.frontier")
	frontier, probes, err := ev.frontier(coarse)
	if err != nil {
		span.End()
		return nil, err
	}
	ph.Probes, ph.FrontierSize = probes, int64(len(frontier))
	span.SetAttr("size", ph.FrontierSize)
	span.End()
	if opt.Progress != nil {
		opt.Progress(ProgressEvent{Phase: "frontier", Candidates: ph.FrontierSize, Best: ev.candidate(bestOf(frontier))})
	}

	// Phase 3: refine around frontier points with halved steps. Each
	// round's neighborhood is enumerated in deterministic order, carved
	// from one arena, and scored as one parallel batch.
	best := bestOf(frontier)
	pool := frontier
	round := int64(0)
	n := len(opt.Dims)
	for step := opt.MinTile / 2; step >= 1; step /= 2 {
		round++
		var assigns [][]int64
		arena := make([]int64, 0, 2*n*n*len(pool)) // ≤ 2 neighbours per dim per point
		for _, c := range pool {
			for i, d := range opt.Dims {
				for _, delta := range []int64{-step, step} {
					v := c.tiles[i] + delta
					if v < 1 || v > d.Max {
						continue
					}
					if opt.DivisorOf != 0 && opt.DivisorOf%v != 0 {
						continue
					}
					arena = append(arena, c.tiles...)
					t := arena[len(arena)-n:]
					t[i] = v
					assigns = append(assigns, t)
				}
			}
		}
		ph.Refine += int64(len(assigns))
		span = opt.Trace.Start("search.refine")
		span.SetAttr("round", round)
		span.SetAttr("step", step)
		span.SetAttr("candidates", int64(len(assigns)))
		next, err := ev.evalBatch(assigns)
		span.End()
		if err != nil {
			return nil, err
		}
		pool = append(pool, next...)
		b := bestOf(pool)
		if b.misses < best.misses {
			best = b
		}
		if opt.Progress != nil {
			opt.Progress(ProgressEvent{Phase: "refine", Round: round, Candidates: int64(len(assigns)), Best: ev.candidate(best)})
		}
		// Phase 4: prune to the most promising candidates before the next
		// refinement round.
		before := len(pool)
		pool = topK(pool, 8)
		ph.Pruned += int64(before - len(pool))
	}

	ph.Evaluated = int64(len(ev.cands))
	ph.record(opt.Obs, round > 0)
	res := ev.result(best, frontier)
	res.Phases = ph
	return res, nil
}

// enumerate builds the cartesian product of the per-dimension grids in
// row-major order (last dimension fastest), matching a nested sequential
// sweep. The vectors are carved from one arena.
func enumerate(grid [][]int64) [][]int64 {
	total := 1
	for _, g := range grid {
		total *= len(g)
	}
	n := len(grid)
	arena := make([]int64, total*n)
	out := make([][]int64, total)
	for k := range out {
		t := arena[k*n : (k+1)*n]
		for i, rest := n-1, k; i >= 0; i-- {
			t[i] = grid[i][rest%len(grid[i])]
			rest /= len(grid[i])
		}
		out[k] = t
	}
	return out
}

// frontier keeps coarse candidates that cannot be doubled in any dimension
// without either leaving the grid or increasing the miss count, counting
// its probes. Doubled points in the power-of-two coarse grid are themselves
// coarse points, so this phase runs on cache hits and needs no parallel
// batch.
func (ev *evaluator) frontier(coarse []point) ([]point, int64, error) {
	var out []point
	var probes int64
	probe := make([]int64, len(ev.opt.Dims))
	for _, c := range coarse {
		isFrontier := true
		for i, d := range ev.opt.Dims {
			v := c.tiles[i] * 2
			if v > d.Max {
				continue
			}
			if ev.opt.DivisorOf != 0 && ev.opt.DivisorOf%v != 0 {
				continue
			}
			probes++
			copy(probe, c.tiles)
			probe[i] = v
			bigger, err := ev.eval(probe)
			if err != nil {
				return nil, 0, err
			}
			if bigger <= c.misses {
				// growing this dimension does not hurt: not on the frontier
				isFrontier = false
				break
			}
		}
		if isFrontier {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		out = []point{bestOf(coarse)}
	}
	return topK(out, 8), probes, nil
}

func bestOf(cs []point) point {
	best := cs[0]
	for _, c := range cs[1:] {
		if c.misses < best.misses {
			best = c
		}
	}
	return best
}

// topK returns the k best distinct points of cs, fewest misses first.
func topK(cs []point, k int) []point {
	sorted := append([]point(nil), cs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].misses < sorted[j].misses })
	var out []point
	for _, c := range sorted {
		if slices.ContainsFunc(out, func(o point) bool { return slices.Equal(o.tiles, c.tiles) }) {
			continue
		}
		out = append(out, c)
		if len(out) == k {
			break
		}
	}
	return out
}

// String renders a candidate as (TI=64, TJ=16, ...).
func (c Candidate) String() string {
	keys := make([]string, 0, len(c.Tiles))
	for k := range c.Tiles {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, c.Tiles[k])
	}
	return fmt.Sprintf("(%s) misses=%d", strings.Join(parts, ", "), c.Misses)
}
