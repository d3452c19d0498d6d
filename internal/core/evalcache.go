package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/obs"
)

// EvalCache is an optional memo beneath the prediction query: its
// PredictMissesFrameConfig answers exactly what Analysis.PredictMissesFrameConfig
// answers, and PredictTotalFrameConfig returns only the total. Both compute
// each distinct (component, relevant bindings) pair once, which is what the
// §6 tile search needs: it scores thousands of nearby tile vectors.
//
// The key insight is that a component's evaluation depends only on the
// symbols its Count, SD and FreeRange expressions actually mention, not on
// the whole environment: a component whose stack distance mentions only TI
// is re-evaluated only when TI changes, no matter how many other tile sizes
// the search is varying. Shared subexpressions across candidates therefore
// collapse into cache hits. The cache stores the capacity-independent
// componentValues; the classification against a concrete geometry is done
// per call, so capacity sweeps over one frame are almost entirely cache
// hits.
//
// EvalCache is safe for concurrent use. Duplicate concurrent evaluations of
// the same key are coalesced through a per-entry sync.Once, which keeps the
// Computed statistic deterministic for a deterministic set of queries.
type EvalCache struct {
	a        *Analysis
	comps    []compCache
	lookups  atomic.Int64
	computed atomic.Int64

	// Observability instruments (nil when constructed without metrics; the
	// hot path then pays one nil test per event). hits+misses == lookups
	// always; coalesced counts the subset of hits that had to wait for a
	// concurrent computation of the same key and is therefore zero in
	// sequential use; entries tracks the number of distinct keys stored.
	// frameEvals counts every computed entry, so it equals misses; it keeps
	// its "evalcache.frame_evals" name because perfbench reads it.
	mLookups, mHits, mMisses, mCoalesced *obs.Counter
	mFrameEvals                          *obs.Counter
	mEntries                             *obs.Gauge
}

// CacheStats reports EvalCache effectiveness. For a deterministic query
// pattern the counters are deterministic regardless of concurrency.
type CacheStats struct {
	Lookups  int64 // total component evaluations requested
	Computed int64 // distinct (component, bindings) pairs computed
}

// HitRate is the fraction of lookups served from the cache.
func (s CacheStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return 1 - float64(s.Computed)/float64(s.Lookups)
}

type compCache struct {
	cc      *compiledComponent
	slots   []int    // sorted SymTab slots of the symbols the component mentions
	entries sync.Map // packed binary key (string) -> *compEntry
}

type compEntry struct {
	once sync.Once
	done atomic.Bool // set inside once, after v/err are assigned
	v    componentValues
	err  error
}

// NewEvalCache builds a cache over the analysis. The analysis must not be
// mutated afterwards.
func NewEvalCache(a *Analysis) *EvalCache {
	return NewEvalCacheWithMetrics(a, nil)
}

// NewEvalCacheWithMetrics is NewEvalCache with observability: lookups,
// hits, misses and coalesced waits are recorded under "evalcache.*"
// counters and the distinct-entry count under the "evalcache.entries"
// gauge. A nil registry disables recording.
func NewEvalCacheWithMetrics(a *Analysis, m *obs.Metrics) *EvalCache {
	ec := &EvalCache{
		a:           a,
		comps:       make([]compCache, len(a.Components)),
		mLookups:    m.Counter("evalcache.lookups"),
		mHits:       m.Counter("evalcache.hits"),
		mMisses:     m.Counter("evalcache.misses"),
		mCoalesced:  m.Counter("evalcache.coalesced"),
		mFrameEvals: m.Counter("evalcache.frame_evals"),
		mEntries:    m.Gauge("evalcache.entries"),
	}
	tab := a.ca.tab
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
		slots := make([]int, 0, len(vars))
		for n := range vars {
			slots = append(slots, tab.Slot(n))
		}
		sort.Ints(slots)
		ec.comps[i] = compCache{cc: &a.ca.comps[i], slots: slots}
	}
	return ec
}

// Analysis returns the underlying analysis.
func (ec *EvalCache) Analysis() *Analysis { return ec.a }

// Stats returns a snapshot of the cache counters.
func (ec *EvalCache) Stats() CacheStats {
	return CacheStats{Lookups: ec.lookups.Load(), Computed: ec.computed.Load()}
}

// packKey appends one bound byte and 8 little-endian value bytes: the
// fixed-width binary element of the cache key. It replaces the decimal
// "name=value" rendering the cache used before the compiled layer existed —
// no formatting, one string allocation per lookup, equal-length keys.
func packKey(buf []byte, bound bool, v int64) []byte {
	if !bound {
		return append(buf, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	return append(buf, 1,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// frameKey packs the component's relevant bindings, in slot order.
func (cc *compCache) frameKey(f *expr.Frame) string {
	var arr [9 * 8]byte
	buf := arr[:0]
	for _, slot := range cc.slots {
		v, ok := f.Get(slot)
		buf = packKey(buf, ok, v)
	}
	return string(buf)
}

// lookup runs the memoized-entry protocol for key, calling compute exactly
// once per distinct key across all goroutines.
func (ec *EvalCache) lookup(cc *compCache, key string, compute func() (componentValues, error)) *compEntry {
	ec.lookups.Add(1)
	ec.mLookups.Inc()
	// Fast path: a completed entry costs no allocation (LoadOrStore would
	// build a throwaway compEntry per hit).
	if v, ok := cc.entries.Load(key); ok {
		e := v.(*compEntry)
		if e.done.Load() {
			ec.mHits.Inc()
			return e
		}
	}
	v, loaded := cc.entries.LoadOrStore(key, &compEntry{})
	e := v.(*compEntry)
	if !loaded {
		ec.mEntries.Add(1)
	}
	if e.done.Load() {
		ec.mHits.Inc()
		return e
	}
	mine := false
	e.once.Do(func() {
		ec.computed.Add(1)
		e.v, e.err = compute()
		e.done.Store(true)
		mine = true
	})
	if mine {
		ec.mMisses.Inc()
	} else {
		// Another goroutine computed this key while we waited on (or
		// raced with) its sync.Once: a hit, but a coalesced one.
		ec.mHits.Inc()
		ec.mCoalesced.Inc()
	}
	return e
}

// values returns the memoized capacity-independent componentValues for the
// frame's bindings.
func (cc *compCache) values(ec *EvalCache, f *expr.Frame) (componentValues, error) {
	e := ec.lookup(cc, cc.frameKey(f), func() (componentValues, error) {
		ec.mFrameEvals.Inc()
		return cc.cc.evalComponentValuesFrame(f)
	})
	return e.v, e.err
}

// PredictMissesFrameConfig is Analysis.PredictMissesFrameConfig through the
// cache: identical reports, memoized component values. The classification
// against cfg, conflict penalty included, is recomputed per call.
func (ec *EvalCache) PredictMissesFrameConfig(f *expr.Frame, cfg CacheConfig) (*MissReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return ec.a.report(f, cfg.norm(), ec)
}

// PredictTotalFrameConfig is PredictMissesFrameConfig reduced to the total,
// without materializing a report: the tile search scores every candidate
// through it, so the per-call allocation matters. cfg must be valid (the
// search validates once up front).
func (ec *EvalCache) PredictTotalFrameConfig(f *expr.Frame, cfg CacheConfig) (int64, error) {
	return ec.a.predict(f, cfg.norm(), ec, nil)
}
