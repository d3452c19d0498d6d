package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// runScript fires the fixed request script — clients concurrent goroutines
// each posting every (path, body) pair rounds times — against a fresh
// service and returns the cache counters and the unique 200 bodies per
// path.
func runScript(t *testing.T, clients, rounds int) (map[string]int64, map[string][][]byte) {
	t.Helper()
	svc, m := newTestService(t)
	h := svc.Handler()

	script := []struct{ path, body string }{
		{"/v1/predict", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}`},
		{"/v1/predict", `{"kernel":"matmul","n":16,"tiles":[8,8,8],"cacheKB":4}`},
		{"/v1/analyze", `{"kernel":"matmul","n":16,"tiles":[4,4,4]}`},
	}

	bodies := make([][][]byte, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, req := range script {
					w := post(t, h, req.path, req.body)
					if w.Code != http.StatusOK {
						t.Errorf("client %d: %s: status %d", c, req.path, w.Code)
						continue
					}
					bodies[c] = append(bodies[c], w.Body.Bytes())
				}
			}
		}(c)
	}
	wg.Wait()

	// Group the 200 bodies by script entry (not by path — the script holds
	// two distinct predict requests with distinct responses).
	perReq := map[string][][]byte{}
	for c := range bodies {
		for i, b := range bodies[c] {
			e := script[i%len(script)]
			perReq[e.path+" "+e.body] = append(perReq[e.path+" "+e.body], b)
		}
	}
	return m.Counters(), perReq
}

// TestCoalescingDeterministic is the acceptance criterion on cache
// metrics: for a fixed request script, the hit and miss counters are the
// same at any interleaving, because singleflight admits exactly one leader
// per distinct key. Only "coalesced" (hits that joined an in-flight entry)
// may vary with timing.
func TestCoalescingDeterministic(t *testing.T) {
	const clients, rounds = 32, 4
	// 3 distinct request keys, but a single analysis: tile sizes change
	// only the env, so every request shares one canonical nest.
	const distinctKeys = 3
	const distinctNests = 1

	c1, bodies := runScript(t, clients, rounds)
	c2, _ := runScript(t, clients, rounds)

	total := int64(clients * rounds * 3)
	for _, c := range []map[string]int64{c1, c2} {
		if c["service.cache.lookups"] != total {
			t.Errorf("cache lookups %d, want %d", c["service.cache.lookups"], total)
		}
		if c["service.cache.misses"] != distinctKeys {
			t.Errorf("cache misses %d, want %d (one per distinct key)", c["service.cache.misses"], distinctKeys)
		}
		if c["service.cache.hits"] != total-distinctKeys {
			t.Errorf("cache hits %d, want lookups-misses %d", c["service.cache.hits"], total-distinctKeys)
		}
		if c["service.analyses.misses"] != distinctNests {
			t.Errorf("analysis misses %d, want %d", c["service.analyses.misses"], distinctNests)
		}
		if c["service.cache.coalesced"] > c["service.cache.hits"] {
			t.Errorf("coalesced %d exceeds hits %d", c["service.cache.coalesced"], c["service.cache.hits"])
		}
	}
	// The two independent runs agree on every deterministic counter.
	for _, name := range []string{
		"service.cache.lookups", "service.cache.hits", "service.cache.misses",
		"service.cache.evictions", "service.analyses.misses",
		"service.requests", "service.predict.ok", "service.analyze.ok",
	} {
		if c1[name] != c2[name] {
			t.Errorf("counter %s differs across identical runs: %d vs %d", name, c1[name], c2[name])
		}
	}
	// Coalesced responses are byte-identical per path.
	for path, bs := range bodies {
		for _, b := range bs[1:] {
			if !bytes.Equal(b, bs[0]) {
				t.Fatalf("%s: concurrent responses differ", path)
			}
		}
	}
}

// TestErrorsNotCached: a failing computation is returned to its waiters
// but evicted immediately, so the key retries (and counts a fresh miss).
func TestErrorsNotCached(t *testing.T) {
	svc, m := newTestService(t)
	h := svc.Handler()
	// Valid syntax, but the prediction fails: N is unbound.
	bad := `{"nest":"nest t\narray A[N]\nfor i = N {\nS0: A[i] = 0\n}\n","cacheKB":4}`
	for i := 0; i < 2; i++ {
		if w := post(t, h, "/v1/predict", bad); w.Code != http.StatusBadRequest {
			t.Fatalf("attempt %d: status %d, want 400", i, w.Code)
		}
	}
	c := m.Counters()
	if c["service.cache.misses"] != 2 {
		t.Errorf("cache misses %d, want 2 (errors must not be cached)", c["service.cache.misses"])
	}
	if n := svc.resp.len(); n != 0 {
		t.Errorf("response cache holds %d entries after failures, want 0", n)
	}
}

// TestHedgedNotCached: a request marked with HedgeHeader gets the bytes an
// unmarked one gets, on a single route and for batch items, but an entry it
// leads is dropped once computed. A marked request still reads an entry
// that is already cached.
func TestHedgedNotCached(t *testing.T) {
	svc, _ := newTestService(t)
	h := svc.Handler()
	hedgedPost := func(path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set(HedgeHeader, "1")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	entries := func() int64 { return svc.Health().FlightCacheEntries }
	for _, rq := range []struct {
		path, body string
		keys       int64
	}{
		{"/v1/predict", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}`, 1},
		{"/v1/batch", `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI"],"sets":[[2],[8]]}}`, 2},
	} {
		before := entries()
		marked := hedgedPost(rq.path, rq.body)
		if got := entries(); got != before {
			t.Errorf("%s: a hedged leader left %d cache entries, want %d", rq.path, got, before)
		}
		plain := post(t, h, rq.path, rq.body)
		if marked.Code != http.StatusOK || !bytes.Equal(marked.Body.Bytes(), plain.Body.Bytes()) {
			t.Errorf("%s: hedged answer %d %q, plain %d %q", rq.path,
				marked.Code, marked.Body.Bytes(), plain.Code, plain.Body.Bytes())
		}
		if got := entries(); got != before+rq.keys {
			t.Errorf("%s: plain request left %d cache entries, want %d", rq.path, got, before+rq.keys)
		}
		if again := hedgedPost(rq.path, rq.body); !bytes.Equal(again.Body.Bytes(), plain.Body.Bytes()) {
			t.Errorf("%s: hedged hit %q, plain %q", rq.path, again.Body.Bytes(), plain.Body.Bytes())
		}
		if got := entries(); got != before+rq.keys {
			t.Errorf("%s: a hedged hit changed the cache to %d entries, want %d", rq.path, got, before+rq.keys)
		}
	}
}

// TestLRUEviction: the response cache respects its bound and evicts the
// least recently used completed entry.
func TestLRUEviction(t *testing.T) {
	m := newFlightCache[[]byte](2, nil, "test")
	fill := func(key string) {
		e, leader := m.acquire(key)
		if leader {
			m.complete(e, []byte(key), nil)
		}
	}
	fill("a")
	fill("b")
	fill("a") // refresh a; b is now LRU
	fill("c") // evicts b
	if m.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", m.len())
	}
	// The refreshed key survived; this lookup is a pure hit.
	if e, leader := m.acquire("a"); leader {
		t.Error("refreshed key a was evicted")
		m.complete(e, nil, nil)
	}
	// b is gone; acquiring it reinstalls an entry (evicting the LRU again),
	// so this check comes last.
	if e, leader := m.acquire("b"); !leader {
		t.Error("evicted key b still cached")
	} else {
		m.complete(e, []byte("b"), nil)
	}
	if m.len() != 2 {
		t.Fatalf("cache holds %d entries after reinstall, want 2", m.len())
	}
}
