package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// keyFixtures covers every /v1/* single endpoint with representative
// bodies, including both the kernel and inline-nest request forms and the
// optional set-associative geometry.
var keyFixtures = []struct{ path, body string }{
	{"/v1/analyze", `{"kernel":"matmul","n":16,"tiles":[4,4,4]}`},
	{"/v1/predict", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}`},
	{"/v1/predict", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"ways":1,"line":4,"detail":true}`},
	{"/v1/tilesearch", `{"kernel":"matmul","n":32,"tiles":[4,4,4],"cacheKB":4,"dims":{"TI":32,"TJ":32,"TK":32}}`},
	{"/v1/simulate", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4]}`},
	{"/v1/simulate", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4],"engine":"analytic"}`},
	{"/v1/optimize", `{"kernel":"twoindexchain","n":32,"cacheElems":256,"autoTile":false}`},
}

// TestCanonicalKeyForRequestAgreesWithPlan pins the sharding contract: the
// exported key helper the cluster router derives shard keys from must agree
// byte-for-byte with the key the service's own planner caches responses
// under, for every /v1/* endpoint. A divergence would send a request to a
// replica that caches it under a different key than the router sharded on.
func TestCanonicalKeyForRequestAgreesWithPlan(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	for _, fx := range keyFixtures {
		routerKey, err := CanonicalKeyForRequest(fx.path, []byte(fx.body))
		if err != nil {
			t.Fatalf("CanonicalKeyForRequest(%s): %v", fx.path, err)
		}
		planKey, _, err := svc.plan(fx.path, []byte(fx.body))
		if err != nil {
			t.Fatalf("plan(%s): %v", fx.path, err)
		}
		if routerKey != planKey {
			t.Errorf("%s %s:\n router key %q\nservice key %q", fx.path, fx.body, routerKey, planKey)
		}
	}
	// Equivalent-but-different bodies must agree on one key too: the router
	// and the service canonicalize identically.
	a, err := CanonicalKeyForRequest("/v1/predict", []byte(`{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalKeyForRequest("/v1/predict", []byte(`{"cacheElems":512,"kernel":"matmul","tiles":[4,4,4],"n":16}`))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("equivalent predict bodies keyed differently:\n%q\n%q", a, b)
	}
	// /v1/batch has no single key.
	if _, err := CanonicalKeyForRequest("/v1/batch", []byte(`{}`)); err == nil {
		t.Error("CanonicalKeyForRequest accepted /v1/batch")
	}
	// Planning errors surface identically.
	if _, err := CanonicalKeyForRequest("/v1/predict", []byte(`{"kernel":"matmul","n":16}`)); err == nil {
		t.Error("CanonicalKeyForRequest accepted a predict without a capacity")
	}
}

// TestExpandBatchRowBodiesRoundTrip pins the batch-splitting contract: each
// candidate row's synthesized /v1/predict body must plan to the row's own
// key and compute the row's exact response bytes, so a router that re-sends
// rows as explicit items to owning replicas reassembles a byte-identical
// envelope.
func TestExpandBatchRowBodiesRoundTrip(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	bodies := []string{
		`{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI","TJ","TK"],"sets":[[2,4,4],[4,4,4],[8,8,8]]}}`,
		`{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"ways":1,"line":4,"detail":true,"dims":["TI","TJ"],"sets":[[2,4],[4,8]]}}`,
	}
	for _, body := range bodies {
		exp, err := ExpandBatch([]byte(body), 256)
		if err != nil {
			t.Fatalf("ExpandBatch: %v", err)
		}
		for i := range exp.Items {
			it := &exp.Items[i]
			if it.Err != nil {
				t.Fatalf("item %d: unexpected planning error %v", i, it.Err)
			}
			key, fn, err := parseRequest(it.Path, it.Body)
			if err != nil {
				t.Fatalf("item %d: synthesized body does not plan: %v", i, err)
			}
			if key != it.Key {
				t.Errorf("item %d: synthesized body keys %q, row keys %q", i, key, it.Key)
			}
			fromBody, err := fn(svc, context.Background(), nil)
			if err != nil {
				t.Fatalf("item %d: compute from body: %v", i, err)
			}
			fromRow, err := it.compute(svc, context.Background(), nil)
			if err != nil {
				t.Fatalf("item %d: compute from row: %v", i, err)
			}
			if string(fromBody) != string(fromRow) {
				t.Errorf("item %d: body-planned and row-planned responses differ:\n%s\n%s", i, fromBody, fromRow)
			}
		}
	}
}

// TestHealthzEnriched checks the /healthz?v=1 opt-in: the bare probe's
// bytes are exactly what they always were, while ?v=1 answers the
// HealthStatus JSON with the same status-code semantics across draining.
func TestHealthzEnriched(t *testing.T) {
	svc := New(Config{Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	defer svc.Close()

	get := func(url string) (int, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	code, body := get(ts.URL + "/healthz")
	if code != 200 || body != `{"status":"ok"}`+"\n" {
		t.Fatalf("bare healthz changed: %d %q", code, body)
	}

	code, body = get(ts.URL + "/healthz?v=1")
	if code != 200 {
		t.Fatalf("healthz?v=1 -> %d", code)
	}
	var h HealthStatus
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("healthz?v=1 body %q: %v", body, err)
	}
	if h.Status != "ok" || h.Draining || h.UptimeSec < 0 || h.QueueDepth != 0 {
		t.Errorf("unexpected health snapshot: %+v", h)
	}

	svc.front.SetDraining(true)
	code, body = get(ts.URL + "/healthz")
	if code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("bare healthz while draining changed: %d %q", code, body)
	}
	code, body = get(ts.URL + "/healthz?v=1")
	if code != 503 {
		t.Fatalf("healthz?v=1 while draining -> %d", code)
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" || !h.Draining {
		t.Errorf("draining health snapshot: %+v", h)
	}
}
