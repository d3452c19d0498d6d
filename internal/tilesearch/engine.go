package tilesearch

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/obs"
)

// The evaluation engine behind Search and Exhaustive. Candidates are
// evaluated through two cache layers:
//
//  1. a candidate-level cache keyed by the tile assignment, so each distinct
//     tile vector is scored once per search, and
//  2. core.EvalCache, which memoizes per-component stack-distance
//     evaluations on the symbols each component actually mentions, so
//     candidates sharing tile values in some dimensions share most of the
//     component work.
//
// Batches of candidates are evaluated by a fixed worker pool. Each cache
// entry is computed under a sync.Once, so duplicate concurrent evaluations
// coalesce and the Evaluated/CacheStats counters are deterministic for a
// given search regardless of the parallelism level. Batch results are
// returned in input order and reduced sequentially, which makes the search
// outcome — including tie-breaking between equal-miss candidates —
// byte-identical across parallelism levels.
type evaluator struct {
	a       *core.Analysis
	ec      *core.EvalCache
	opt     Options
	ctx     context.Context
	workers int
	// cfg is the cache geometry every candidate is scored against.
	cfg core.CacheConfig

	// dimSlots are the SymTab slots of the tile symbols, aligned with
	// opt.Dims: binding a candidate into a frame is len(Dims) stores, no
	// map, no allocation.
	dimSlots []int
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
		ec:      core.NewEvalCacheWithMetrics(a, opt.Obs),
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
		misses, err = ev.ec.PredictTotalFrameConfig(f, ev.cfg)
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
	rep, err := ev.ec.PredictMissesFrameConfig(f, ev.cfg)
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
