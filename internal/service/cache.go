package service

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// flightCache is the shared machinery behind the response cache and the
// analysis cache: a bounded LRU whose entries double as singleflight
// rendezvous points. acquire either finds an entry (complete or still in
// flight — the caller waits on done either way) or installs a new in-flight
// entry and nominates the caller as its leader; exactly one goroutine
// computes each key, everyone else coalesces onto that computation.
//
// Metric determinism (the serving layer's acceptance criterion): for a
// fixed request script against a cache whose capacity covers the distinct
// keys, misses equals the number of distinct keys — singleflight guarantees
// one leader per key no matter how the requests interleave — and hits is
// exactly lookups - misses. Only coalesced (the subset of hits that joined
// a still-in-flight entry) depends on timing.
//
// Failed computations are evicted on completion, so an error is returned to
// the leader and every coalesced waiter but never served from cache; the
// next request for that key retries (and counts a fresh miss). Transient
// entries are evicted on completion the same way, whatever their result.
type flightCache[V any] struct {
	mu      sync.Mutex
	cap     int
	lru     *list.List // front = most recently used; values are *flightEntry[V]
	entries map[string]*list.Element

	lookups, hits, misses, coalesced, evictions *obs.Counter
	gauge                                       *obs.Gauge
}

// flightEntry is one cached (or in-flight) computation. val and err are
// written once by complete before done is closed; waiters read them only
// after <-done.
type flightEntry[V any] struct {
	key  string
	done chan struct{}
	val  V
	err  error
	// transient is set by the leader before it schedules the computation;
	// complete then drops the entry once its waiters are woken.
	transient bool
}

// newFlightCache creates a cache holding at most capacity completed
// entries. Instrument names are resolved once under the given prefix
// (prefix+".lookups", ".hits", ".misses", ".coalesced", ".evictions" and
// the ".entries" gauge); m may be nil.
func newFlightCache[V any](capacity int, m *obs.Metrics, prefix string) *flightCache[V] {
	return &flightCache[V]{
		cap:       capacity,
		lru:       list.New(),
		entries:   map[string]*list.Element{},
		lookups:   m.Counter(prefix + ".lookups"),
		hits:      m.Counter(prefix + ".hits"),
		misses:    m.Counter(prefix + ".misses"),
		coalesced: m.Counter(prefix + ".coalesced"),
		evictions: m.Counter(prefix + ".evictions"),
		gauge:     m.Gauge(prefix + ".entries"),
	}
}

// acquire returns the entry for key and whether the caller is its leader.
// The leader must eventually call complete on the entry — failing to do so
// deadlocks every waiter — and a non-leader must not.
func (c *flightCache[V]) acquire(key string) (*flightEntry[V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lookups.Inc()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*flightEntry[V])
		c.hits.Inc()
		select {
		case <-e.done:
		default:
			c.coalesced.Inc()
		}
		return e, false
	}
	e := &flightEntry[V]{key: key, done: make(chan struct{})}
	c.entries[key] = c.lru.PushFront(e)
	c.misses.Inc()
	c.evict()
	c.gauge.Set(int64(len(c.entries)))
	return e, true
}

// evict drops least-recently-used completed entries until the cache fits.
// In-flight entries are skipped — evicting one would detach it from the
// map while waiters still hold it, and a concurrent acquire of its key
// would start a duplicate computation — so the cache can transiently
// exceed cap when everything in it is still computing.
func (c *flightCache[V]) evict() {
	for el := c.lru.Back(); el != nil && c.lru.Len() > c.cap; {
		prev := el.Prev()
		e := el.Value.(*flightEntry[V])
		select {
		case <-e.done:
			c.lru.Remove(el)
			delete(c.entries, e.key)
			c.evictions.Inc()
		default:
		}
		el = prev
	}
}

// complete publishes the leader's result and wakes every waiter. Errors
// and transient entries are not cached: the entry is removed, so the next
// request for the key computes it again.
func (c *flightCache[V]) complete(e *flightEntry[V], val V, err error) {
	c.mu.Lock()
	e.val, e.err = val, err
	close(e.done)
	if err != nil || e.transient {
		if el, ok := c.entries[e.key]; ok && el.Value.(*flightEntry[V]) == e {
			c.lru.Remove(el)
			delete(c.entries, e.key)
		}
	}
	c.gauge.Set(int64(len(c.entries)))
	c.mu.Unlock()
}

// len reports the number of cached (and in-flight) entries.
func (c *flightCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
