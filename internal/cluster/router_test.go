package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// TestRouterCounterBalance drives each router outcome once and asserts the
// one counter it lands in: relayed answers count by the replica's status,
// the router's own answers by theirs. After every request router.requests
// must equal ok + errors + rejected, and the router.latency count must
// equal router.requests.
func TestRouterCounterBalance(t *testing.T) {
	// Two replicas behind pass-through stubs that can force a status on
	// /v1/* (their /healthz stays real, so the prober keeps them healthy).
	var force atomic.Int32
	var urls []string
	for i := 0; i < 2; i++ {
		svc := service.New(service.Config{Workers: 1})
		h := svc.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if code := int(force.Load()); code != 0 && strings.HasPrefix(r.URL.Path, "/v1/") {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(code)
				fmt.Fprintf(w, "{\"error\":\"forced %d\"}\n", code)
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			svc.Close()
		})
		urls = append(urls, ts.URL)
	}
	m := obs.New()
	// The long probe interval keeps markDown's verdict until the test
	// re-probes; the long hedge makes every second attempt a retry.
	rt, err := New(Config{Replicas: urls, Obs: m, MaxInFlight: 1, ProbeInterval: time.Hour, Hedge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	counters := []string{"router.ok", "router.errors", "router.rejected", "router.noreplica"}
	sent := int64(0)
	send := func(step, method, path, body string, want int, lands ...string) {
		t.Helper()
		sent++
		before := m.Counters()
		w := httptest.NewRecorder()
		rt.Handler().ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		if w.Code != want {
			t.Errorf("%s: status %d, want %d (%s)", step, w.Code, want, w.Body.String())
		}
		after := m.Counters()
		for _, c := range counters {
			wantDelta := int64(0)
			for _, l := range lands {
				if l == c {
					wantDelta = 1
				}
			}
			if d := after[c] - before[c]; d != wantDelta {
				t.Errorf("%s: %s moved by %d, want %d", step, c, d, wantDelta)
			}
		}
		req := after["router.requests"]
		if req != sent {
			t.Errorf("%s: router.requests %d after %d requests", step, req, sent)
		}
		if sum := after["router.ok"] + after["router.errors"] + after["router.rejected"]; req != sum {
			t.Errorf("%s: router.requests %d != ok+errors+rejected %d", step, req, sum)
		}
		if n := m.Timers()["router.latency"].Count; n != req {
			t.Errorf("%s: router.latency count %d != router.requests %d", step, n, req)
		}
	}

	const predict = "/v1/predict"
	send("relayed 200", http.MethodPost, predict, predict16, 200, "router.ok")
	force.Store(http.StatusTooManyRequests)
	send("relayed replica 429", http.MethodPost, predict, predict16, 429, "router.rejected")
	force.Store(http.StatusServiceUnavailable)
	send("relayed replica 503", http.MethodPost, predict, predict16, 503, "router.rejected")
	force.Store(0)
	send("malformed body", http.MethodPost, predict, `{"kernel":`, 400, "router.errors")
	oversized := predict16 + strings.Repeat(" ", service.MaxBodyBytes+1-len(predict16))
	send("oversized body", http.MethodPost, predict, oversized, 400, "router.errors")
	send("GET", http.MethodGet, predict, "", 405, "router.errors")

	rt.front.SetDraining(true)
	send("draining", http.MethodPost, predict, predict16, 503, "router.rejected")
	rt.front.SetDraining(false)

	// The in-flight bound is checked after the body read, so an oversized
	// body at the bound is a 400, not a 429.
	rt.inflight <- struct{}{}
	send("at the in-flight bound", http.MethodPost, predict, predict16, 429, "router.rejected")
	send("oversized body at the in-flight bound", http.MethodPost, predict, oversized, 400, "router.errors")
	<-rt.inflight

	batch := `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI","TJ","TK"],"sets":[[2,4,4],[4,4,4],[8,8,8],[4,2,8],[2,2,2],[8,4,2]]}}`
	exp, err := service.ExpandBatch([]byte(batch), 256)
	if err != nil {
		t.Fatal(err)
	}
	if groups, err := rt.groupItems(exp); err != nil || len(groups) != 2 {
		t.Fatalf("the batch splits into %d groups (%v), want one per replica", len(groups), err)
	}
	send("split batch", http.MethodPost, "/v1/batch", batch, 200, "router.ok")

	for _, u := range urls {
		rt.prober.markDown(u, errors.New("down"))
	}
	send("no healthy replica", http.MethodPost, predict, predict16, 503, "router.rejected", "router.noreplica")
	send("batch with no healthy replica", http.MethodPost, "/v1/batch", batch, 503, "router.rejected", "router.noreplica")
}
