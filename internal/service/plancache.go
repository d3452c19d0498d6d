package service

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// memoLRU is a bounded, mutex-guarded memo table keyed by exact bytes with
// LRU eviction: the shared machinery behind the single-request plan memo
// and the batch-plan memo. Lookups take the key as a []byte built into
// reused scratch — the []byte→string conversion inside the map index does
// not allocate, so a warm-path hit costs one lock and one map probe; the
// key string is materialized only when an entry is installed.
type memoLRU[V any] struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List
	entries map[string]*list.Element

	hits, misses *obs.Counter
}

// memoEntry is one memoized value.
type memoEntry[V any] struct {
	key string
	val V
}

func newMemoLRU[V any](capacity int, m *obs.Metrics, prefix string) *memoLRU[V] {
	return &memoLRU[V]{
		cap:     capacity,
		lru:     list.New(),
		entries: map[string]*list.Element{},
		hits:    m.Counter(prefix + ".hits"),
		misses:  m.Counter(prefix + ".misses"),
	}
}

// get looks key up, refreshing its LRU position. The zero-allocation hit
// path of the serving layer's request planning.
func (c *memoLRU[V]) get(key []byte) (V, bool) {
	c.mu.Lock()
	if el, ok := c.entries[string(key)]; ok {
		c.lru.MoveToFront(el)
		v := el.Value.(*memoEntry[V]).val
		c.mu.Unlock()
		c.hits.Inc()
		return v, true
	}
	c.mu.Unlock()
	var zero V
	return zero, false
}

// put installs key→val unless a concurrent put won the race (first insert
// wins — planning is deterministic, so the values are equivalent), then
// evicts down to capacity.
func (c *memoLRU[V]) put(key []byte, val V) {
	c.mu.Lock()
	if _, ok := c.entries[string(key)]; !ok {
		k := string(key)
		c.entries[k] = c.lru.PushFront(&memoEntry[V]{key: k, val: val})
		for c.lru.Len() > c.cap {
			el := c.lru.Back()
			c.lru.Remove(el)
			delete(c.entries, el.Value.(*memoEntry[V]).key)
		}
	}
	c.mu.Unlock()
	c.misses.Inc()
}

// len reports the number of memoized entries.
func (c *memoLRU[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// planned is one memoized single-request planning outcome: JSON decode,
// kernel construction, nest parse, canonicalization, key packing. Planning
// is deterministic, so identical bodies always reproduce the same canonical
// key and an equivalent computation; memoizing it moves the per-request hot
// path of a cache-hit request from "parse and canonicalize a nest" to "one
// map lookup". It is strictly an optimization: a body that misses here is
// planned from scratch and a hit can never change a response, only skip
// recomputing its key. Planning errors are cached too (they are equally
// deterministic), which also bounds the work a client re-sending a
// malformed body can cause.
type planned struct {
	key     string
	compute computeFn
	err     error
}

const (
	planCacheCap = 1024
	maxPlanBody  = 4 << 10

	batchPlanCacheCap = 128
	maxBatchPlanBody  = 64 << 10
)

// memoKeyPool recycles the scratch the memo keys are assembled into.
var memoKeyPool = sync.Pool{New: func() any { return new([]byte) }}

// memoKeyOf renders (path, body) into scratch as path NUL body. The scratch
// pointer comes from memoKeyPool.
func memoKeyOf(scratch []byte, path string, body []byte) []byte {
	scratch = append(scratch[:0], path...)
	scratch = append(scratch, 0)
	return append(scratch, body...)
}

// memoized looks (path, body) up in c, computing and installing the value
// on a miss. Only bodies up to maxBody are memoized, so a memo's memory
// stays bounded by its capacity times maxBody.
func memoized[V any](c *memoLRU[V], maxBody int, path string, body []byte, compute func() V) V {
	if len(body) > maxBody {
		return compute()
	}
	kp := memoKeyPool.Get().(*[]byte)
	*kp = memoKeyOf(*kp, path, body)
	v, ok := c.get(*kp)
	if !ok {
		v = compute()
		c.put(*kp, v)
	}
	memoKeyPool.Put(kp)
	return v
}

// plan resolves a single request through the plan memo; the plain and
// streamed forms of a route share its entries.
func (s *Service) plan(path string, body []byte) (string, computeFn, error) {
	p := memoized(s.plans, maxPlanBody, path, body, func() *planned {
		key, compute, err := parseRequest(path, body)
		return &planned{key: key, compute: compute, err: err}
	})
	return p.key, p.compute, p.err
}

// planBatch resolves a /v1/batch body through the batch-plan memo: the
// whole per-request tax — envelope decode, per-item planning, candidate
// expansion — collapses to one map probe when the same batch body repeats,
// which is exactly the cache-hot sweep shape the batch endpoint amortizes.
func (s *Service) planBatch(body []byte) *batchPlan {
	return memoized(s.batchPlans, maxBatchPlanBody, batchPath, body, func() *batchPlan {
		exp, err := ExpandBatch(body, s.cfg.MaxBatchItems)
		if err != nil {
			return &batchPlan{err: err}
		}
		plan := &batchPlan{items: make([]itemPlan, len(exp.Items))}
		for i, it := range exp.Items {
			plan.items[i] = itemPlan{key: it.Key, compute: it.compute, err: it.Err}
		}
		return plan
	})
}

// KeyMemo memoizes CanonicalKeyForRequest per exact (path, body) bytes, with
// the plan memo's machinery and bounds; the analysisrouter keys every
// request through one. Planning errors are memoized too: a malformed body
// is malformed forever, and re-rejecting it should not cost a re-parse. A
// body over the size bound is keyed from scratch each time and counts as a
// miss.
type KeyMemo struct{ memo *memoLRU[keyed] }

// keyed is one memoized key derivation.
type keyed struct {
	key string
	err error
}

// NewKeyMemo returns an empty key memo that counts its lookups as
// prefix.hits and prefix.misses in m (nil m counts nothing).
func NewKeyMemo(m *obs.Metrics, prefix string) *KeyMemo {
	return &KeyMemo{newMemoLRU[keyed](planCacheCap, m, prefix)}
}

// Key returns the canonical key of a single request, from the memo when the
// same bytes were keyed before.
func (km *KeyMemo) Key(path string, body []byte) (string, error) {
	if len(body) > maxPlanBody {
		km.memo.misses.Inc()
	}
	k := memoized(km.memo, maxPlanBody, path, body, func() keyed {
		key, err := CanonicalKeyForRequest(path, body)
		return keyed{key, err}
	})
	return k.key, k.err
}

// Len reports the number of memoized bodies.
func (km *KeyMemo) Len() int { return km.memo.len() }
