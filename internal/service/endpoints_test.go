package service

import (
	"bytes"
	"context"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// endpointFixtures is the fixed request script behind the golden tests and
// the determinism test: one representative request per endpoint, small
// enough that the full suite stays fast.
var endpointFixtures = []struct {
	name, path, body string
}{
	{
		name: "analyze_matmul",
		path: "/v1/analyze",
		body: `{"kernel":"matmul","n":16,"tiles":[4,4,4]}`,
	},
	{
		name: "predict_matmul",
		path: "/v1/predict",
		body: `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"detail":true}`,
	},
	{
		name: "tilesearch_matmul",
		path: "/v1/tilesearch",
		body: `{"kernel":"matmul","n":32,"tiles":[4,4,4],"cacheKB":4,"dims":{"TI":32,"TJ":32,"TK":32}}`,
	},
	{
		name: "simulate_matmul",
		path: "/v1/simulate",
		body: `{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4],"perSite":true}`,
	},
	{
		name: "optimize_twoindexchain",
		path: "/v1/optimize",
		body: `{"kernel":"twoindexchain","n":32,"cacheElems":256,"autoTile":false}`,
	},
	{
		name: "predict_matmul_directmapped",
		path: "/v1/predict",
		body: `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"ways":1,"line":4,"detail":true}`,
	},
	{
		name: "tilesearch_matmul_directmapped",
		path: "/v1/tilesearch",
		body: `{"kernel":"matmul","n":32,"tiles":[4,4,4],"cacheKB":4,"ways":1,"dims":{"TI":32,"TJ":32,"TK":32}}`,
	},
}

func newTestService(t *testing.T) (*Service, *obs.Metrics) {
	t.Helper()
	m := obs.New()
	svc := New(Config{Obs: m, Workers: 2, QueueDepth: 16})
	t.Cleanup(svc.Close)
	return svc, m
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestEndpointGolden pins each endpoint's JSON response byte-for-byte.
// Regenerate with: go test ./internal/service -run Golden -update
func TestEndpointGolden(t *testing.T) {
	svc, _ := newTestService(t)
	h := svc.Handler()
	for _, fx := range endpointFixtures {
		t.Run(fx.name, func(t *testing.T) {
			w := post(t, h, fx.path, fx.body)
			if w.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", fx.path, w.Code, w.Body.String())
			}
			got := w.Body.Bytes()

			// The handler's bytes must equal the direct library call's.
			direct, err := svc.Compute(context.Background(), fx.path, []byte(fx.body))
			if err != nil {
				t.Fatalf("direct compute: %v", err)
			}
			if !bytes.Equal(got, direct) {
				t.Fatalf("served response differs from direct Compute")
			}

			golden := filepath.Join("testdata", fx.name+".golden.json")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("response differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
			}
		})
	}
}

// TestEndpointErrors pins the error statuses of the request lifecycle.
func TestEndpointErrors(t *testing.T) {
	svc, _ := newTestService(t)
	h := svc.Handler()
	cases := []struct {
		name, path, body string
		method           string
		wantCode         int
	}{
		{"get rejected", "/v1/predict", "", http.MethodGet, http.StatusMethodNotAllowed},
		{"bad json", "/v1/predict", `{"kernel":`, http.MethodPost, http.StatusBadRequest},
		{"unknown field", "/v1/analyze", `{"kernle":"matmul"}`, http.MethodPost, http.StatusBadRequest},
		{"no nest or kernel", "/v1/analyze", `{}`, http.MethodPost, http.StatusBadRequest},
		{"both nest and kernel", "/v1/analyze", `{"kernel":"matmul","n":16,"nest":"nest x\nfor i = 2 {\nS0: A[i] = 0\n}","env":{}}`, http.MethodPost, http.StatusBadRequest},
		{"kernel without n", "/v1/predict", `{"kernel":"matmul","cacheKB":4}`, http.MethodPost, http.StatusBadRequest},
		{"no capacity", "/v1/predict", `{"kernel":"matmul","n":16}`, http.MethodPost, http.StatusBadRequest},
		{"missing binding", "/v1/predict", `{"nest":"nest t\narray A[N]\nfor i = N {\nS0: A[i] = 0\n}\n","cacheKB":4}`, http.MethodPost, http.StatusBadRequest},
		{"no dims", "/v1/tilesearch", `{"kernel":"matmul","n":32,"cacheKB":4,"dims":{}}`, http.MethodPost, http.StatusBadRequest},
		{"no watches", "/v1/simulate", `{"kernel":"matmul","n":16}`, http.MethodPost, http.StatusBadRequest},
		{"negative watch", "/v1/simulate", `{"kernel":"matmul","n":16,"watches":[-1]}`, http.MethodPost, http.StatusBadRequest},
		{"oversized trace", "/v1/simulate", `{"kernel":"matmul","n":2048,"tiles":[64,64,64],"watchKB":[4]}`, http.MethodPost, http.StatusBadRequest},
		// A loop past its array's extent, and a short trace over an array
		// one element larger than MaxTraceLen, never reach a simulator.
		{"out-of-range trace", "/v1/simulate", oobSimulate, http.MethodPost, http.StatusBadRequest},
		{"oversized address space", "/v1/simulate", `{"nest":"nest big\narray A[N]\nfor i = 4 {\n  S: A[i] = 0\n}\n","env":{"N":268435457},"watches":[2]}`, http.MethodPost, http.StatusBadRequest},
		{"oversized sampled address space", "/v1/simulate", `{"nest":"nest big\narray A[N]\nfor i = 4 {\n  S: A[i] = 0\n}\n","env":{"N":268435457},"watches":[2],"engine":"sampled"}`, http.MethodPost, http.StatusBadRequest},
		// The set-associative geometry taxonomy: an explicit ways of zero is
		// rejected (omit the field for the fully-associative model), the line
		// must divide the capacity, the ways must divide the line count, and
		// a line without ways selects nothing and is rejected.
		{"zero ways", "/v1/predict", `{"kernel":"matmul","n":16,"cacheKB":4,"ways":0}`, http.MethodPost, http.StatusBadRequest},
		{"line not dividing capacity", "/v1/predict", `{"kernel":"matmul","n":16,"cacheKB":4,"ways":2,"line":3}`, http.MethodPost, http.StatusBadRequest},
		{"ways exceeding lines", "/v1/predict", `{"kernel":"matmul","n":16,"cacheKB":4,"ways":256,"line":4}`, http.MethodPost, http.StatusBadRequest},
		{"line without ways", "/v1/predict", `{"kernel":"matmul","n":16,"cacheKB":4,"line":4}`, http.MethodPost, http.StatusBadRequest},
		{"tilesearch zero ways", "/v1/tilesearch", `{"kernel":"matmul","n":32,"cacheKB":4,"ways":0,"dims":{"TI":32}}`, http.MethodPost, http.StatusBadRequest},
		{"tilesearch bad geometry", "/v1/tilesearch", `{"kernel":"matmul","n":32,"cacheKB":4,"ways":3,"dims":{"TI":32}}`, http.MethodPost, http.StatusBadRequest},
		// The body is one JSON document: trailing whitespace is legal,
		// anything else after the document is not.
		{"trailing whitespace", "/v1/predict", validPredict + " \n\t\r\n", http.MethodPost, http.StatusOK},
		{"trailing garbage", "/v1/predict", validPredict + "garbage", http.MethodPost, http.StatusBadRequest},
		{"two documents", "/v1/predict", validPredict + validPredict, http.MethodPost, http.StatusBadRequest},
		{"trailing garbage on analyze", "/v1/analyze", `{"kernel":"matmul","n":16,"tiles":[4,4,4]} x`, http.MethodPost, http.StatusBadRequest},
		// A body over the limit is rejected whole, never truncated.
		{"over-limit body", "/v1/predict", overLimit(validPredict), http.MethodPost, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != tc.wantCode {
				t.Errorf("status %d, want %d (body %s)", w.Code, tc.wantCode, w.Body.String())
			}
		})
	}
	// The oversize guard is MaxTraceLen at work: 2048³ matmul iterations
	// exceed the default 1<<28 accesses.

	// The over-limit answer names the limit.
	w := post(t, h, "/v1/predict", overLimit(validPredict))
	if want := `{"error":"bad request: request body exceeds 1048576 bytes"}` + "\n"; w.Body.String() != want {
		t.Errorf("over-limit body answered %q, want %q", w.Body.String(), want)
	}
}

// oobSimulate is a /v1/simulate body whose loop runs past its array: it used
// to index past the stack simulator's address space and panic a worker.
const oobSimulate = `{"nest":"nest oob\narray A[N]\nfor i = M {\n  S: A[i] = 0\n}\n","env":{"N":4,"M":64},"watches":[2]}`

// validPredict is a small well-formed /v1/predict body.
const validPredict = `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}`

// overLimit pads a body with spaces to one byte past MaxBodyBytes: still a
// valid document once truncated at the limit.
func overLimit(body string) string {
	return body + strings.Repeat(" ", MaxBodyBytes+1-len(body))
}

// TestHealthz: readiness flips with the draining flag.
func TestHealthz(t *testing.T) {
	svc, _ := newTestService(t)
	h := svc.Handler()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", w.Code)
	}
	svc.front.SetDraining(true)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", w.Code)
	}
}

// TestCanonicalizationSharesCache: two syntactically different requests
// for the same problem — reordered env keys, whitespace, comments, junk
// bindings, kernel form vs equivalent inline form — hit one cache entry.
func TestCanonicalizationSharesCache(t *testing.T) {
	svc, m := newTestService(t)
	h := svc.Handler()

	// The same inline nest twice: once as written, once with shuffled env
	// order, extra whitespace, a comment and an irrelevant binding.
	a := `{"nest":"nest t\narray A[N]\nfor i = N {\nS0: A[i] = 0\n}\n","env":{"N":64},"cacheKB":4}`
	b := `{"nest":"# same nest\nnest t\narray A[N]\n\nfor i = N  {\nS0: A[i] = 0\n}\n","env":{"JUNK":1,"N":64},"cacheKB":4}`
	r1 := post(t, h, "/v1/predict", a)
	r2 := post(t, h, "/v1/predict", b)
	if r1.Code != http.StatusOK || r2.Code != http.StatusOK {
		t.Fatalf("status %d / %d: %s %s", r1.Code, r2.Code, r1.Body.String(), r2.Body.String())
	}
	if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Error("equivalent requests served different bytes")
	}
	c := m.Counters()
	if c["service.cache.misses"] != 1 || c["service.cache.hits"] != 1 {
		t.Errorf("cache misses=%d hits=%d, want 1/1 (canonical keys should collide)",
			c["service.cache.misses"], c["service.cache.hits"])
	}
}

// TestAssocCacheKeys pins the cache-key contract of the ways/line fields:
// distinct geometries get distinct entries, an omitted line keys as line 1,
// and a request that omits ways shares the pre-existing fully-associative
// entry (and therefore its exact bytes).
func TestAssocCacheKeys(t *testing.T) {
	svc, m := newTestService(t)
	h := svc.Handler()
	base := `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}`
	script := []struct {
		name, body string
		wantMisses int64 // cumulative distinct entries after this request
	}{
		{"fully associative", base, 1},
		{"direct mapped", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"ways":1}`, 2},
		{"direct mapped line 1", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"ways":1,"line":1}`, 2},
		{"two way", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"ways":2}`, 3},
		{"fully associative again", base, 3},
	}
	bodies := map[string][]byte{}
	for _, step := range script {
		w := post(t, h, "/v1/predict", step.body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step.name, w.Code, w.Body.String())
		}
		bodies[step.name] = append([]byte(nil), w.Body.Bytes()...)
		if got := m.Counters()["service.cache.misses"]; got != step.wantMisses {
			t.Errorf("%s: %d distinct cache entries, want %d", step.name, got, step.wantMisses)
		}
	}
	if bytes.Equal(bodies["fully associative"], bodies["direct mapped"]) {
		t.Error("direct-mapped response identical to fully-associative response")
	}
	if !bytes.Equal(bodies["direct mapped"], bodies["direct mapped line 1"]) {
		t.Error("omitted line and explicit line 1 served different bytes")
	}
	if !bytes.Equal(bodies["fully associative"], bodies["fully associative again"]) {
		t.Error("repeat fully-associative request served different bytes")
	}
}
