package tilesearch

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/obs"
)

// The evaluation engine behind Search and Exhaustive. A candidate-level
// cache keyed by the tile assignment scores each distinct tile vector once
// per search, straight through the analysis' compiled programs.
//
// Batches of candidates are evaluated by a fixed worker pool. Each
// candidate entry is computed under a sync.Once, so duplicate concurrent
// evaluations coalesce and the set of scored candidates, and with it
// Evaluated and CacheStats, is deterministic for a given search regardless
// of the parallelism level. Batch results are returned in input order and
// reduced sequentially, which makes the search outcome — including
// tie-breaking between equal-miss candidates — byte-identical across
// parallelism levels.
type evaluator struct {
	a       *core.Analysis
	opt     Options
	ctx     context.Context
	workers int
	// cfg is the cache geometry every candidate is scored against.
	cfg core.CacheConfig

	// dimSlots are the SymTab slots of the tile symbols, aligned with
	// opt.Dims: binding a candidate into a frame is len(Dims) stores, no
	// map, no allocation.
	dimSlots []int
	// groups partition the components by the dims they mention, for the
	// CacheStats count.
	groups []dimGroup
	// seqFrame is the reusable frame of the calling goroutine (frontier
	// probes and sequential batches). Worker goroutines build their own in
	// evalBatch — frames are single-goroutine scratch.
	seqFrame *expr.Frame
	// Unknown-bounds mode: per-component flags precomputed once so the
	// per-candidate scoring loop does no Vars() set-building. Aligned with
	// a.Components.
	infSD   []bool
	boundSD []bool

	mu    sync.Mutex
	cands map[string]*candEntry
}

// dimGroup is a set of components that mention the same search dims.
type dimGroup struct {
	dims  []int // indices into opt.Dims, ascending
	comps int64 // components in the group
}

type candEntry struct {
	once sync.Once
	c    Candidate
	err  error
}

func newEvaluator(a *core.Analysis, opt Options) *evaluator {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opt.Parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 0 {
		workers = 1
	}
	ev := &evaluator{
		a:       a,
		opt:     opt,
		ctx:     ctx,
		workers: workers,
		cands:   map[string]*candEntry{},
	}
	ev.cfg = opt.cacheConfig()
	tab := a.SymTab()
	ev.dimSlots = make([]int, len(opt.Dims))
	for i, d := range opt.Dims {
		ev.dimSlots[i] = tab.Slot(d.Symbol)
	}
	ev.groups = dimGroups(a, ev.dimSlots)
	ev.seqFrame = ev.newFrame()
	if opt.UnknownBounds != nil {
		comps := a.Components
		ev.infSD = make([]bool, len(comps))
		ev.boundSD = make([]bool, len(comps))
		for i, c := range comps {
			if c.SD.Base.IsInf() {
				ev.infSD[i] = true
				continue
			}
			ev.boundSD[i] = c.SD.Base.HasAnyVar(opt.UnknownBounds) ||
				(c.SD.Slope != nil && c.SD.Slope.HasAnyVar(opt.UnknownBounds))
		}
	}
	return ev
}

// dimGroups groups the components by the search dims their slots include,
// in order of first appearance.
func dimGroups(a *core.Analysis, dimSlots []int) []dimGroup {
	var groups []dimGroup
next:
	for i := range a.Components {
		slots := a.ComponentSlots(i)
		var dims []int
		for d, slot := range dimSlots {
			if _, ok := slices.BinarySearch(slots, slot); ok {
				dims = append(dims, d)
			}
		}
		for g := range groups {
			if slices.Equal(groups[g].dims, dims) {
				groups[g].comps++
				continue next
			}
		}
		groups = append(groups, dimGroup{dims: dims, comps: 1})
	}
	return groups
}

// newFrame builds a worker-lifetime frame with the base environment already
// bound. Candidates then only overwrite the tile slots: every assignment
// binds every dimension, so no stale tile value survives between candidates.
func (ev *evaluator) newFrame() *expr.Frame {
	f := ev.a.NewFrame()
	f.Bind(ev.opt.BaseEnv)
	return f
}

// entry returns the cache slot for a tile assignment, creating it if needed.
func (ev *evaluator) entry(key string) *candEntry {
	ev.mu.Lock()
	e, ok := ev.cands[key]
	if !ok {
		e = &candEntry{}
		ev.cands[key] = e
	}
	ev.mu.Unlock()
	return e
}

// evaluated reports the number of distinct tile assignments scored so far.
func (ev *evaluator) evaluated() int {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return len(ev.cands)
}

// CacheStats counts the component evaluations behind a search. Lookups is
// the number of component evaluations the search ran; Computed is the
// number of distinct (component, bindings) pairs among them. Both are
// functions of the set of scored candidates, so they are deterministic at
// every parallelism level.
type CacheStats struct {
	Lookups  int64
	Computed int64
}

// HitRate is the fraction of component evaluations that repeat an earlier
// one's bindings: 1 - Computed/Lookups.
func (s CacheStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return 1 - float64(s.Computed)/float64(s.Lookups)
}

// Record adds the counts to the "evalcache.*" instruments: lookups, hits
// (lookups - computed), misses and frame_evals (computed), and the entries
// gauge (computed). coalesced is registered at zero: no evaluation ever
// waits on another's. A nil registry records nothing.
func (s CacheStats) Record(m *obs.Metrics) {
	m.Counter("evalcache.lookups").Add(s.Lookups)
	m.Counter("evalcache.hits").Add(s.Lookups - s.Computed)
	m.Counter("evalcache.misses").Add(s.Computed)
	m.Counter("evalcache.frame_evals").Add(s.Computed)
	m.Counter("evalcache.coalesced")
	m.Gauge("evalcache.entries").Add(s.Computed)
}

// cacheStats counts the scored set. Every candidate evaluates every
// component once. A component's values depend only on the bindings of its
// own slots, and every slot but the tile slots holds BaseEnv for the whole
// search, so its distinct bindings are the distinct projections of the
// scored tile vectors onto the dims it mentions. The projections are read
// off the candidate keys, which hold 8 bytes per dim in Dims order.
func (ev *evaluator) cacheStats() CacheStats {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	n := int64(len(ev.cands))
	s := CacheStats{Lookups: n * int64(len(ev.a.Components))}
	var keys []string
	var seen map[string]struct{}
	var buf []byte
	for _, g := range ev.groups {
		switch len(g.dims) {
		case 0:
			s.Computed += g.comps
			continue
		case len(ev.opt.Dims):
			s.Computed += g.comps * n
			continue
		}
		if keys == nil {
			keys = make([]string, 0, n)
			for key := range ev.cands {
				keys = append(keys, key)
			}
			seen = make(map[string]struct{}, n)
		}
		clear(seen)
		for _, key := range keys {
			buf = buf[:0]
			for _, d := range g.dims {
				buf = append(buf, key[8*d:8*d+8]...)
			}
			if _, ok := seen[string(buf)]; !ok { // only an insert allocates the key
				seen[string(buf)] = struct{}{}
			}
		}
		s.Computed += g.comps * int64(len(seen))
	}
	return s
}

// testHookScored, when non-nil, sees the evaluator of every successful
// search before its result is built: tests read the scored set from it.
var testHookScored func(*evaluator)

// result closes a successful search: it counts the scored set and records
// the counts on Options.Obs.
func (ev *evaluator) result(best Candidate, frontier []Candidate) *Result {
	if testHookScored != nil {
		testHookScored(ev)
	}
	s := ev.cacheStats()
	s.Record(ev.opt.Obs)
	return &Result{Best: best, Frontier: frontier, Evaluated: ev.evaluated(), Cache: s}
}

// eval scores one tile assignment, memoized on the assignment key. The
// frame is the calling goroutine's scratch — workers pass their own,
// sequential callers pass ev.seqFrame.
func (ev *evaluator) eval(tiles map[string]int64, f *expr.Frame) (Candidate, error) {
	e := ev.entry(tileKey(tiles, ev.opt.Dims))
	e.once.Do(func() {
		e.c, e.err = ev.compute(tiles, f)
	})
	return e.c, e.err
}

func (ev *evaluator) compute(tiles map[string]int64, f *expr.Frame) (Candidate, error) {
	for i, d := range ev.opt.Dims {
		f.Set(ev.dimSlots[i], tiles[d.Symbol])
	}
	var misses int64
	var err error
	if ev.opt.UnknownBounds != nil {
		misses, err = ev.boundFreeMisses(f)
	} else {
		misses, err = ev.a.PredictTotalFrameConfig(f, ev.cfg)
	}
	if err != nil {
		return Candidate{}, err
	}
	return Candidate{Tiles: cloneTiles(tiles), Misses: misses}, nil
}

// evalBatch scores a slice of tile assignments with the worker pool and
// returns the candidates in input order. The returned error, if any, is the
// one at the lowest input index, matching what a sequential in-order sweep
// would report: indices are handed to workers in increasing order and every
// started item runs to completion, so the earliest failure is always
// observed. Context cancellation aborts un-started items.
func (ev *evaluator) evalBatch(assigns []map[string]int64) ([]Candidate, error) {
	out := make([]Candidate, len(assigns))
	if ev.workers <= 1 || len(assigns) <= 1 {
		for i, a := range assigns {
			if err := ev.ctx.Err(); err != nil {
				return nil, err
			}
			c, err := ev.eval(a, ev.seqFrame)
			if err != nil {
				return nil, err
			}
			out[i] = c
		}
		return out, nil
	}
	errs := make([]error, len(assigns))
	var next int64
	var nextMu sync.Mutex
	take := func() int {
		nextMu.Lock()
		i := int(next)
		next++
		nextMu.Unlock()
		return i
	}
	var wg sync.WaitGroup
	for w := 0; w < ev.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker utilization instruments. These are the one family
			// of metrics that legitimately varies with Parallelism: the
			// dynamic take() schedule decides which worker scores which
			// candidate. Busy time is accumulated per item so that
			// (worker.N.busy / batch wall time) reads as utilization.
			var items *obs.Counter
			var busy *obs.Timer
			if ev.opt.Obs != nil {
				items = ev.opt.Obs.Counter(fmt.Sprintf("worker.%d.items", w))
				busy = ev.opt.Obs.Timer(fmt.Sprintf("worker.%d.busy", w))
			}
			f := ev.newFrame() // worker-lifetime frame, reused per candidate
			for {
				i := take()
				if i >= len(assigns) {
					return
				}
				if err := ev.ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				sw := busy.Start()
				out[i], errs[i] = ev.eval(assigns[i], f)
				sw.Stop()
				items.Inc()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// boundFreeMisses scores a candidate in unknown-bounds mode: a component
// whose stack distance avoids the bound symbols is classified exactly; a
// component whose stack distance mentions a bound is assumed to miss (the
// bounds are unknown but large, so any distance proportional to a bound
// exceeds the cache). Counts use the surrogate bounds, which scale all
// candidates identically. Detail is in a.Components order, so the
// precomputed flag slices index it directly.
func (ev *evaluator) boundFreeMisses(f *expr.Frame) (int64, error) {
	rep, err := ev.a.PredictMissesFrameConfig(f, ev.cfg)
	if err != nil {
		return 0, err
	}
	var total int64
	for i, d := range rep.Detail {
		switch {
		case ev.infSD[i]:
			// compulsory misses are tile-independent
		case ev.boundSD[i]:
			total += d.Count // assumed miss: SD grows with the bounds
		default:
			total += d.Misses
		}
	}
	return total, nil
}
