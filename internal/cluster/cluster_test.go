package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// predict16 is the predict body the pretty-printed and over-limit
// requests share, so the over-limit request adds no distinct key.
const predict16 = `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}`

// trafficRequest is one scripted request: path, optional raw query, body.
type trafficRequest struct {
	path, query, body string
}

// mixedTraffic covers every endpoint through the router: single lookups
// across enough distinct specs to land on all replicas, batches (explicit
// items, candidates, both, streamed), streaming searches, a pretty-printed
// response, and requests that fail planning.
func mixedTraffic() []trafficRequest {
	reqs := []trafficRequest{
		{"/v1/analyze", "", `{"kernel":"matmul","n":16,"tiles":[4,4,4]}`},
		{"/v1/analyze", "", `{"kernel":"twoindexchain","n":32}`},
		{"/v1/simulate", "", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4]}`},
		{"/v1/simulate", "", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4],"engine":"analytic"}`},
		{"/v1/tilesearch", "", `{"kernel":"matmul","n":32,"tiles":[4,4,4],"cacheKB":4,"dims":{"TI":32,"TJ":32,"TK":32}}`},
		{"/v1/tilesearch", "stream=1", `{"kernel":"matmul","n":32,"tiles":[4,4,4],"cacheKB":4,"dims":{"TI":32,"TJ":32,"TK":32}}`},
		{"/v1/optimize", "", `{"kernel":"twoindexchain","n":32,"cacheElems":256,"autoTile":false}`},
		{"/v1/optimize", "stream=1", `{"kernel":"twoindexchain","n":32,"cacheElems":256,"autoTile":false}`},
		{"/v1/predict", "pretty=1", predict16},
		{"/v1/predict", "", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"ways":1,"line":4,"detail":true}`},
		// Planning failures must answer identically through the router.
		{"/v1/predict", "", `{"kernel":"matmul","n":16}`},
		{"/v1/analyze", "", `{"nest":"this is not a nest"}`},
		{"/v1/predict", "", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}{"kernel":"matmul"}`},
		{"/v1/batch", "", `{"items":[{"path":"/v1/analyze","request":{"kernel":"matmul","n":16,"tiles":[4,4,4]}}]} garbage`},
		// So must an over-limit body, which both tiers reject unread.
		{"/v1/predict", "", predict16 + strings.Repeat(" ", service.MaxBodyBytes+1-len(predict16))},
		// Batches: explicit items (mixed good and bad), candidates, both.
		{"/v1/batch", "", `{"items":[` +
			`{"path":"/v1/analyze","request":{"kernel":"matmul","n":16,"tiles":[4,4,4]}},` +
			`{"path":"/v1/predict","request":{"kernel":"matmul","n":20,"tiles":[4,4,4],"cacheKB":4}},` +
			`{"path":"/v1/nope","request":{}},` +
			`{"path":"/v1/predict","request":{"kernel":"matmul","n":16}},` +
			`{"path":"/v1/simulate","request":{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1]}}]}`},
		{"/v1/batch", "", `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI","TJ","TK"],"sets":[[2,4,4],[4,4,4],[8,8,8],[4,2,8]]}}`},
		{"/v1/batch", "stream=1", `{"items":[{"path":"/v1/analyze","request":{"kernel":"matmul","n":24,"tiles":[4,4,4]}}],"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"ways":1,"line":4,"dims":["TI","TJ"],"sets":[[2,4],[4,8],[0,1]]}}`},
		// Batch-level failures.
		{"/v1/batch", "", `{}`},
	}
	// A spread of distinct predict keys so every replica owns some.
	for n := 8; n <= 28; n += 2 {
		reqs = append(reqs, trafficRequest{
			"/v1/predict", "",
			fmt.Sprintf(`{"kernel":"matmul","n":%d,"tiles":[4,4,4],"cacheKB":4}`, n),
		})
	}
	return reqs
}

func post(t *testing.T, client *http.Client, base string, req trafficRequest) (int, []byte) {
	t.Helper()
	url := base + req.path
	if req.query != "" {
		url += "?" + req.query
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader([]byte(req.body)))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", url, err)
	}
	return resp.StatusCode, body
}

// expectedResponses computes the oracle: every scripted request answered by
// a single standalone replica, the bytes the cluster must reproduce.
func expectedResponses(t *testing.T, reqs []trafficRequest) map[string]struct {
	status int
	body   []byte
} {
	t.Helper()
	svc := service.New(service.Config{Workers: 2})
	sv, err := service.Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sv.Drain(ctx)
	}()
	client := &http.Client{}
	want := map[string]struct {
		status int
		body   []byte
	}{}
	for _, rq := range reqs {
		status, body := post(t, client, "http://"+sv.Addr(), rq)
		want[rq.path+"?"+rq.query+"\x00"+rq.body] = struct {
			status int
			body   []byte
		}{status, body}
	}
	return want
}

// TestClusterByteIdentity is the tentpole acceptance test: a 4-replica
// in-process cluster answers mixed single/batch/stream traffic, under
// client concurrency, with exactly the status and bytes one standalone
// backend produces — routing is invisible in the payload. It also asserts
// sharding did its job: no response key was cached on two replicas.
func TestClusterByteIdentity(t *testing.T) {
	reqs := mixedTraffic()
	want := expectedResponses(t, reqs)

	lc, err := StartLocal(4, service.Config{Workers: 2},
		Config{ProbeInterval: 25 * time.Millisecond, Hedge: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lc.Close(ctx)
	}()

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			client := &http.Client{}
			for round := 0; round < 3; round++ {
				for i := range reqs {
					rq := reqs[(i+offset)%len(reqs)]
					status, body := post(t, client, lc.URL(), rq)
					w := want[rq.path+"?"+rq.query+"\x00"+rq.body]
					if status != w.status || !bytes.Equal(body, w.body) {
						errs <- fmt.Errorf("%s?%s %s:\n got %d %q\nwant %d %q",
							rq.path, rq.query, rq.body, status, body, w.status, w.body)
						return
					}
				}
			}
			errs <- nil
		}(c * 5)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// No key was computed-and-cached on two replicas: the per-replica
	// response cache populations sum to the number of distinct cached keys
	// a single backend would hold. (Streamed responses bypass the cache on
	// both sides, so they don't count.)
	total := 0
	client := &http.Client{}
	for _, sv := range lc.replicaServers {
		total += int(sv.Service.Health().FlightCacheEntries)
		_ = client // keep the import shape stable
	}
	distinct := map[string]bool{}
	for _, rq := range reqs {
		if rq.path == "/v1/batch" && rq.query == "stream=1" {
			continue // records come from item keys below
		}
		if rq.query == "stream=1" {
			continue
		}
		if rq.path == "/v1/batch" {
			exp, err := service.ExpandBatch([]byte(rq.body), 256)
			if err != nil {
				continue
			}
			for _, it := range exp.Items {
				if it.Err == nil {
					distinct[it.Key] = true
				}
			}
			continue
		}
		if key, err := service.CanonicalKeyForRequest(rq.path, []byte(rq.body)); err == nil {
			distinct[key] = true
		}
	}
	// Streamed batch items share keys with the aggregated forms, so add
	// them too (they do populate the cache).
	for _, rq := range reqs {
		if rq.path == "/v1/batch" && rq.query == "stream=1" {
			if exp, err := service.ExpandBatch([]byte(rq.body), 256); err == nil {
				for _, it := range exp.Items {
					if it.Err == nil {
						distinct[it.Key] = true
					}
				}
			}
		}
	}
	if total != len(distinct) {
		t.Errorf("replica caches hold %d entries in total, want %d distinct keys (a key was duplicated or lost)", total, len(distinct))
	}
}

// TestClusterDrainMidTraffic drains one of four replicas while clients
// hammer the cluster: every request must still answer 200 with the exact
// oracle bytes — the drained replica's key range falls to its ring
// successors without one failed or duplicated item.
func TestClusterDrainMidTraffic(t *testing.T) {
	var reqs []trafficRequest
	for n := 8; n <= 30; n++ {
		reqs = append(reqs, trafficRequest{
			"/v1/predict", "",
			fmt.Sprintf(`{"kernel":"matmul","n":%d,"tiles":[4,4,4],"cacheKB":4}`, n),
		})
	}
	reqs = append(reqs, trafficRequest{"/v1/batch", "",
		`{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI","TJ","TK"],"sets":[[2,4,4],[4,4,4],[8,8,8]]}}`})
	want := expectedResponses(t, reqs)

	lc, err := StartLocal(4, service.Config{Workers: 2},
		Config{ProbeInterval: 20 * time.Millisecond, Hedge: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lc.Close(ctx)
	}()

	stop := make(chan struct{})
	var failures atomic.Int64
	var requests atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rq := reqs[(i+offset)%len(reqs)]
				status, body := post(t, client, lc.URL(), rq)
				requests.Add(1)
				w := want[rq.path+"?"+rq.query+"\x00"+rq.body]
				if status != w.status || !bytes.Equal(body, w.body) {
					failures.Add(1)
					t.Errorf("%s %s: got %d %q, want %d", rq.path, rq.body, status, body, w.status)
					return
				}
			}
		}(c * 7)
	}

	time.Sleep(150 * time.Millisecond) // let traffic warm up
	drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := lc.DrainReplica(drainCtx, 0); err != nil {
		t.Errorf("drain replica 0: %v", err)
	}
	time.Sleep(300 * time.Millisecond) // traffic continues against 3 replicas
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d of %d requests failed across the drain", n, requests.Load())
	}
	if n := requests.Load(); n < 50 {
		t.Fatalf("only %d requests ran — not a meaningful drain window", n)
	}
	t.Logf("%d requests, 0 failures across replica drain", requests.Load())
}

// TestRouterNoHealthyReplica pins the all-backends-down answer: once every
// replica is drained the router rejects with 503 — first by relaying the
// replicas' own draining 503, then, after the prober notices, with its own
// "no healthy replica".
func TestRouterNoHealthyReplica(t *testing.T) {
	lc, err := StartLocal(2, service.Config{Workers: 1},
		Config{ProbeInterval: 20 * time.Millisecond, Hedge: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lc.Close(ctx)
	}()

	client := &http.Client{}
	rq := trafficRequest{"/v1/analyze", "", `{"kernel":"matmul","n":16,"tiles":[4,4,4]}`}
	if status, body := post(t, client, lc.URL(), rq); status != 200 {
		t.Fatalf("healthy cluster answered %d %s", status, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if err := lc.DrainReplica(ctx, i); err != nil {
			t.Fatalf("drain replica %d: %v", i, err)
		}
	}
	// Whatever the prober has noticed so far, the client answer is 503.
	if status, body := post(t, client, lc.URL(), rq); status != 503 {
		t.Fatalf("all-backends-down answered %d %s, want 503", status, body)
	}
	// After a probe round the router knows and says so itself; /v1/batch
	// takes the same path.
	deadline := time.Now().Add(2 * time.Second)
	for {
		status, body := post(t, client, lc.URL(), rq)
		if status == 503 && bytes.Contains(body, []byte("no healthy replica")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never reported no healthy replica: %d %s", status, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	status, body := post(t, client, lc.URL(), trafficRequest{"/v1/batch", "",
		`{"items":[{"path":"/v1/analyze","request":{"kernel":"matmul","n":16,"tiles":[4,4,4]}}]}`})
	if status != 503 || !bytes.Contains(body, []byte("no healthy replica")) {
		t.Fatalf("batch on dead cluster answered %d %s, want 503 no healthy replica", status, body)
	}
}

// TestRouterDrainAndAdmission covers the router's own lifecycle half: the
// draining flag answers 503 on /v1/* and fails /healthz (bare and ?v=1),
// and a full in-flight bound answers 429 with Retry-After.
func TestRouterDrainAndAdmission(t *testing.T) {
	lc, err := StartLocal(2, service.Config{Workers: 1},
		Config{ProbeInterval: 25 * time.Millisecond, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lc.Close(ctx)
	}()
	client := &http.Client{}
	rt := lc.Router()

	// Fill the single admission slot; the next request bounces with 429.
	rt.inflight <- struct{}{}
	status, body := post(t, client, lc.URL(), trafficRequest{"/v1/analyze", "", `{"kernel":"matmul","n":16,"tiles":[4,4,4]}`})
	if status != 429 || !bytes.Contains(body, []byte("capacity")) {
		t.Fatalf("over-capacity router answered %d %s, want 429", status, body)
	}
	<-rt.inflight

	resp, err := client.Get(lc.URL() + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz on live router: %v %v", resp, err)
	}
	resp.Body.Close()

	// The draining flag flips every answer to 503 while the listener is
	// still up — exactly the window Server.Drain creates.
	rt.front.SetDraining(true)
	status, body = post(t, client, lc.URL(), trafficRequest{"/v1/analyze", "", `{"kernel":"matmul","n":16,"tiles":[4,4,4]}`})
	if status != 503 || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("draining router answered %d %s, want 503 draining", status, body)
	}
	resp, err = client.Get(lc.URL() + "/healthz")
	if err != nil || resp.StatusCode != 503 {
		t.Fatalf("healthz on draining router: %v %v", resp, err)
	}
	resp.Body.Close()
	resp, err = client.Get(lc.URL() + "/healthz?v=1")
	if err != nil || resp.StatusCode != 503 {
		t.Fatalf("healthz?v=1 on draining router: %v %v", resp, err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(b, []byte(`"draining":true`)) || !bytes.Contains(b, []byte(`"replicas"`)) {
		t.Fatalf("enriched router health missing fields: %s", b)
	}
	rt.front.SetDraining(false)
}

// TestKeyMemo pins the router's key memo as the router builds it: hits
// return the memoized key (including memoized planning errors), the LRU
// stays bounded, oversized bodies bypass it, and router.keymemo.hits and
// .misses count every lookup, an oversized body as a miss.
func TestKeyMemo(t *testing.T) {
	// The service's plan-memo bounds, which the key memo shares.
	const memoCap, memoMaxBody = 1024, 4096
	m := obs.New()
	km := service.NewKeyMemo(m, "router.keymemo")
	counts := func(hits, misses int64) {
		t.Helper()
		if h, ms := m.Counter("router.keymemo.hits").Load(), m.Counter("router.keymemo.misses").Load(); h != hits || ms != misses {
			t.Fatalf("hits %d, misses %d; want %d, %d", h, ms, hits, misses)
		}
	}
	body := []byte(`{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}`)
	k1, err := km.Key("/v1/predict", body)
	if err != nil || k1 == "" {
		t.Fatalf("lookup: %q %v", k1, err)
	}
	k2, err := km.Key("/v1/predict", body)
	if err != nil || k2 != k1 {
		t.Fatalf("memoized lookup diverged: %q vs %q (%v)", k2, k1, err)
	}
	if km.Len() != 1 {
		t.Fatalf("memo holds %d entries, want 1", km.Len())
	}
	counts(1, 1)
	// Same body, different path → different memo entry and key.
	k3, err := km.Key("/v1/analyze", []byte(`{"kernel":"matmul","n":16,"tiles":[4,4,4]}`))
	if err != nil || k3 == k1 {
		t.Fatalf("analyze key: %q %v", k3, err)
	}
	// Errors memoize too.
	if _, err := km.Key("/v1/predict", []byte(`{"kernel":"matmul","n":16}`)); err == nil {
		t.Fatal("bad predict accepted")
	}
	if _, err := km.Key("/v1/predict", []byte(`{"kernel":"matmul","n":16}`)); err == nil {
		t.Fatal("memoized bad predict accepted")
	}
	if km.Len() != 3 {
		t.Fatalf("memo holds %d entries, want 3", km.Len())
	}
	counts(2, 3)
	// Oversized bodies still resolve but are not memoized.
	big := append([]byte(`{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"env":{}} `), bytes.Repeat([]byte(" "), memoMaxBody)...)
	for i := 0; i < 2; i++ {
		if _, err := km.Key("/v1/predict", big); err != nil {
			t.Fatalf("oversized body: %v", err)
		}
	}
	if km.Len() != 3 {
		t.Fatalf("oversized body was memoized: %d entries", km.Len())
	}
	counts(2, 5)
	// The LRU bound holds.
	for i := 0; i < memoCap+50; i++ {
		km.Key("/v1/predict", []byte(fmt.Sprintf(`{"kernel":"matmul","n":%d,"tiles":[4,4,4],"cacheKB":4}`, i+8)))
	}
	if km.Len() != memoCap {
		t.Fatalf("memo holds %d entries, want its cap %d", km.Len(), memoCap)
	}
}
