package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// lifecycleRoutes is every /v1 route with its metric name and a valid body.
var lifecycleRoutes = []struct {
	path, name, body string
	streams          bool // ?stream=1 answers NDJSON
}{
	{"/v1/analyze", "analyze", `{"kernel":"matmul","n":16,"tiles":[4,4,4]}`, false},
	{"/v1/predict", "predict", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}`, false},
	{"/v1/tilesearch", "tilesearch", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":1,"dims":{"TI":16}}`, true},
	{"/v1/optimize", "optimize", `{"kernel":"twoindexchain","n":8,"cacheElems":64,"autoTile":false}`, true},
	{"/v1/simulate", "simulate", `{"kernel":"matmul","n":8,"tiles":[4,4,4],"watchKB":[1]}`, false},
	{"/v1/batch", "batch", `{"items":[{"path":"/v1/analyze","request":{"kernel":"matmul","n":16,"tiles":[4,4,4]}}]}`, true},
}

// checkBalance asserts the endpoint metric invariant
// service.<ep>.requests == ok + errors + rejected for every route, and that
// the per-endpoint requests sum to service.requests.
func checkBalance(t *testing.T, m *obs.Metrics) {
	t.Helper()
	c := m.Counters()
	var sum int64
	for _, rt := range lifecycleRoutes {
		p := "service." + rt.name
		req, acc := c[p+".requests"], c[p+".ok"]+c[p+".errors"]+c[p+".rejected"]
		if req != acc {
			t.Errorf("%s: requests %d != ok+errors+rejected %d", rt.name, req, acc)
		}
		sum += req
	}
	if total := c["service.requests"]; total != sum {
		t.Errorf("service.requests %d != per-endpoint sum %d", total, sum)
	}
}

// TestLifecycle pins the request lifecycle every /v1 route shares, plain
// and with ?stream=1: GET answers 405, a malformed body 400, a POST while
// draining 503 — and each outcome lands on exactly one of the endpoint's
// ok/errors/rejected counters.
func TestLifecycle(t *testing.T) {
	for _, rt := range lifecycleRoutes {
		for _, query := range []string{"", "?stream=1"} {
			t.Run(rt.name+query, func(t *testing.T) {
				svc, m := newTestService(t)
				h := svc.Handler()
				send := func(step, method, body string, want int) {
					t.Helper()
					req := httptest.NewRequest(method, rt.path+query, strings.NewReader(body))
					w := httptest.NewRecorder()
					h.ServeHTTP(w, req)
					if w.Code != want {
						t.Errorf("%s: status %d, want %d (body %s)", step, w.Code, want, w.Body.String())
					}
					checkBalance(t, m)
				}
				// The point endpoints answer one record and refuse ?stream=1.
				wantValid := http.StatusOK
				if query != "" && !rt.streams {
					wantValid = http.StatusBadRequest
				}
				send("GET", http.MethodGet, "", http.StatusMethodNotAllowed)
				send("malformed JSON", http.MethodPost, `{"kernel":`, http.StatusBadRequest)
				send("valid POST", http.MethodPost, rt.body, wantValid)
				svc.front.SetDraining(true)
				send("POST while draining", http.MethodPost, rt.body, http.StatusServiceUnavailable)
			})
		}
	}
}

// FuzzHandler sends mutated bodies through Handler() to every route, plain
// and with ?stream=1. Every answer must come from the documented taxonomy
// (200, 400, 429, 503, 504), nothing may panic, and the endpoint counters
// must balance after every request. The small timeout and trace budget
// keep any one input from holding a worker for long.
func FuzzHandler(f *testing.F) {
	for _, fx := range endpointFixtures {
		f.Add([]byte(fx.body))
	}
	f.Add([]byte(batchFixture))
	f.Add([]byte(oobSimulate))
	f.Add([]byte(`{` + dupLabelNest + `,"cacheElems":64,"detail":true}`))
	for _, kind := range []string{"matmul", "matmul-naive", "twoindex", "twoindexchain", "fourindex", "ccsd"} {
		f.Add([]byte(`{"kernel":"` + kind + `","n":16,"cacheElems":64}`))
	}
	for _, tiles := range []string{`"matmul","tiles":[4,2,8]`, `"twoindex","tiles":[4,4,8,2]`, `"ccsd","tiles":[2,2,2,2,2,2]`} {
		f.Add([]byte(`{"kernel":` + tiles + `,"n":16,"cacheElems":64}`))
	}
	f.Add([]byte(`{"candidates":{"kernel":"twoindex","n":32,"env":{"NJ":16,"X":1},"cacheElems":256,"ways":2,"line":4,"detail":true,` +
		`"dims":["TI","TN"],"sets":[[4,8],[0,2],[16]]}}`))
	m := obs.New()
	svc := New(Config{Obs: m, Workers: 2, QueueDepth: 16, RequestTimeout: 200 * time.Millisecond, MaxTraceLen: 1 << 16})
	f.Cleanup(svc.Close)
	h := svc.Handler()
	taxonomy := map[int]bool{200: true, 400: true, 429: true, 503: true, 504: true}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, rt := range lifecycleRoutes {
			for _, query := range []string{"", "?stream=1"} {
				req := httptest.NewRequest(http.MethodPost, rt.path+query, bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if !taxonomy[w.Code] {
					t.Errorf("%s%s: status %d outside the taxonomy: %s", rt.path, query, w.Code, w.Body.String())
				}
				checkBalance(t, m)
			}
		}
	})
}
