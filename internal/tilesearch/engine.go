package tilesearch

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/obs"
)

// The evaluation engine behind Search and Exhaustive. A candidate-level
// cache keyed by the tile assignment scores each distinct tile vector once
// per search, straight through the analysis' compiled programs.
//
// The cache belongs to the search goroutine. A batch lists the keys it is
// missing, a fixed worker pool scores them into the batch's own slots, and
// the search goroutine installs the results, so the set of scored
// candidates, and with it Evaluated and CacheStats, is deterministic for a
// given search regardless of the parallelism level. Batch results are
// returned in input order and reduced sequentially, which makes the search
// outcome — including tie-breaking between equal-miss candidates —
// byte-identical across parallelism levels.
type evaluator struct {
	a       *core.Analysis
	opt     Options
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
	// seqFrame is the reusable frame of the search goroutine (frontier
	// probes and sequential batches). Worker goroutines build their own in
	// evalBatch — frames are single-goroutine scratch.
	seqFrame *expr.Frame
	// Unknown-bounds mode: per-component flags precomputed once so the
	// per-candidate scoring loop does no Vars() set-building. Aligned with
	// a.Components.
	infSD   []bool
	boundSD []bool

	// cands maps the key of every tile vector scored so far (appendKey) to
	// its miss count. key is the search goroutine's reused key buffer:
	// lookups index cands with string(key), which does not allocate.
	cands map[string]int64
	key   []byte
}

// point is one candidate inside the search: its tile values in Dims order
// and its miss count. Only the candidates a search reports are turned into
// Candidates, whose tiles are keyed by symbol.
type point struct {
	tiles  []int64
	misses int64
}

// dimGroup is a set of components that mention the same search dims.
type dimGroup struct {
	dims  []int // indices into opt.Dims, ascending
	comps int64 // components in the group
}

func newEvaluator(a *core.Analysis, opt Options) *evaluator {
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
		workers: workers,
		cands:   map[string]int64{},
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

// CacheStats counts the component evaluations behind a search. Lookups is
// the number of component evaluations the search ran; Computed is the
// number of distinct (component, bindings) pairs among them. Both are
// functions of the set of scored candidates, so they are deterministic at
// every parallelism level.
type CacheStats struct {
	Lookups  int64 `json:"cacheLookups"`
	Computed int64 `json:"cacheComputed"`
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

// result closes a successful search: it counts the scored set, records
// the counts on Options.Obs, and builds the reported candidates. A nil
// frontier stays nil.
func (ev *evaluator) result(best point, frontier []point) *Result {
	if testHookScored != nil {
		testHookScored(ev)
	}
	s := ev.cacheStats()
	s.Record(ev.opt.Obs)
	res := &Result{Best: ev.candidate(best), Evaluated: len(ev.cands), CacheStats: s}
	if frontier != nil {
		res.Frontier = make([]Candidate, len(frontier))
		for i, p := range frontier {
			res.Frontier[i] = ev.candidate(p)
		}
	}
	return res
}

// candidate builds the reported form of a point: its tiles keyed by symbol.
func (ev *evaluator) candidate(p point) Candidate {
	tiles := make(map[string]int64, len(p.tiles))
	for i, d := range ev.opt.Dims {
		tiles[d.Symbol] = p.tiles[i]
	}
	return Candidate{Tiles: tiles, Misses: p.misses}
}

// appendKey appends the candidate-cache key of a tile vector: each value's
// 8 little-endian bytes, in Dims order. Dimension order is fixed for a
// search, so the symbol names need not appear in the key.
func appendKey(buf []byte, tiles []int64) []byte {
	for _, v := range tiles {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	return buf
}

// eval scores one tile vector on the search goroutine, memoized on its key,
// and returns its miss count.
func (ev *evaluator) eval(tiles []int64) (int64, error) {
	ev.key = appendKey(ev.key[:0], tiles)
	if m, ok := ev.cands[string(ev.key)]; ok {
		return m, nil
	}
	m, err := ev.compute(tiles, ev.seqFrame)
	if err != nil {
		return 0, err
	}
	ev.cands[string(ev.key)] = m
	return m, nil
}

// compute scores one tile vector on the frame of the calling goroutine.
func (ev *evaluator) compute(tiles []int64, f *expr.Frame) (int64, error) {
	for i, v := range tiles {
		f.Set(ev.dimSlots[i], v)
	}
	if ev.opt.UnknownBounds != nil {
		return ev.boundFreeMisses(f)
	}
	return ev.a.PredictTotalFrameConfig(f, ev.cfg)
}

// evalBatch scores a slice of tile assignments and returns the candidates
// in input order. The assignments the cache is missing are scored once
// each, first occurrence first, by the worker pool into the batch's own
// slots; the search goroutine then installs them. The returned error, if
// any, is the one at the lowest input index, matching what a sequential
// in-order sweep would report: indices are handed to workers in increasing
// order and every started item runs to completion, so the earliest failure
// is always observed. Context cancellation aborts un-started items.
func (ev *evaluator) evalBatch(assigns [][]int64) ([]point, error) {
	var missing []int           // indices into assigns
	pending := map[string]int{} // key of assigns[missing[j]] -> j
	for i, t := range assigns {
		ev.key = appendKey(ev.key[:0], t)
		if _, ok := ev.cands[string(ev.key)]; ok {
			continue
		}
		if _, ok := pending[string(ev.key)]; !ok { // only an insert allocates the key
			pending[string(ev.key)] = len(missing)
			missing = append(missing, i)
		}
	}
	scored := make([]int64, len(missing))
	if err := ev.score(assigns, missing, scored); err != nil {
		return nil, err
	}
	for key, j := range pending {
		ev.cands[key] = scored[j]
	}
	out := make([]point, len(assigns))
	for i, t := range assigns {
		ev.key = appendKey(ev.key[:0], t)
		out[i] = point{tiles: t, misses: ev.cands[string(ev.key)]}
	}
	return out, nil
}

// score computes assigns[missing[j]] into out[j], sequentially or on the
// worker pool.
func (ev *evaluator) score(assigns [][]int64, missing []int, out []int64) error {
	ctx := ev.opt.Context
	if ev.workers <= 1 || len(missing) <= 1 {
		for j, i := range missing {
			if err := ctx.Err(); err != nil {
				return err
			}
			m, err := ev.compute(assigns[i], ev.seqFrame)
			if err != nil {
				return err
			}
			out[j] = m
		}
		return nil
	}
	errs := make([]error, len(missing))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < ev.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Per-worker utilization instruments. These are the one family
			// of metrics that legitimately varies with Parallelism: the
			// dynamic schedule decides which worker scores which
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
				j := int(next.Add(1) - 1)
				if j >= len(missing) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[j] = err
					continue
				}
				sw := busy.Start()
				out[j], errs[j] = ev.compute(assigns[missing[j]], f)
				sw.Stop()
				items.Inc()
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
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
