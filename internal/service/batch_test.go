package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// batchFixture exercises every per-item outcome in one request: three
// heterogeneous explicit items, a non-batchable path (per-item 400), a
// candidates sweep sharing one compiled spec, and a malformed candidate
// row (per-item 400). Partial success is the point: the envelope is a 200.
const batchFixture = `{"items":[` +
	`{"path":"/v1/analyze","request":{"kernel":"matmul","n":16,"tiles":[4,4,4]}},` +
	`{"path":"/v1/predict","request":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"detail":true}},` +
	`{"path":"/v1/simulate","request":{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4]}},` +
	`{"path":"/v1/bogus","request":{}}` +
	`],"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,` +
	`"dims":["TI","TJ","TK"],"sets":[[2,4,4],[4,4,4],[8,8,8],[2,4]]}}`

// batchEnvelope mirrors the wire format for assertions.
type batchEnvelope struct {
	Items []struct {
		Item     int             `json:"item"`
		OK       bool            `json:"ok"`
		Response json.RawMessage `json:"response"`
		Status   int             `json:"status"`
		Error    string          `json:"error"`
	} `json:"items"`
	Summary struct {
		Items  int `json:"items"`
		OK     int `json:"ok"`
		Errors int `json:"errors"`
	} `json:"summary"`
}

// TestBatchGolden pins the aggregated batch envelope byte-for-byte, checks
// it against the direct Compute path, and checks every successful item's
// embedded response against the equivalent single-endpoint computation.
func TestBatchGolden(t *testing.T) {
	svc, _ := newTestService(t)
	h := svc.Handler()
	w := post(t, h, "/v1/batch", batchFixture)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	got := w.Body.Bytes()

	direct, err := svc.Compute(context.Background(), "/v1/batch", []byte(batchFixture))
	if err != nil {
		t.Fatalf("direct compute: %v", err)
	}
	if !bytes.Equal(got, direct) {
		t.Fatalf("served batch differs from direct Compute:\nserved: %s\ndirect: %s", got, direct)
	}

	var env batchEnvelope
	if err := json.Unmarshal(got, &env); err != nil {
		t.Fatalf("unmarshal envelope: %v", err)
	}
	if env.Summary.Items != 8 || env.Summary.OK != 6 || env.Summary.Errors != 2 {
		t.Errorf("summary %+v, want items=8 ok=6 errors=2", env.Summary)
	}
	// Item order is request order.
	for i, it := range env.Items {
		if it.Item != i {
			t.Errorf("item %d reports index %d", i, it.Item)
		}
	}
	// Per-item equivalence: each embedded response equals the single
	// endpoint's bytes (minus the framing newline).
	singles := []struct {
		item       int
		path, body string
	}{
		{0, "/v1/analyze", `{"kernel":"matmul","n":16,"tiles":[4,4,4]}`},
		{1, "/v1/predict", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"detail":true}`},
		{2, "/v1/simulate", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"watchKB":[1,4]}`},
		{4, "/v1/predict", `{"kernel":"matmul","n":16,"tiles":[2,4,4],"cacheKB":4}`},
		{5, "/v1/predict", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}`},
		{6, "/v1/predict", `{"kernel":"matmul","n":16,"tiles":[8,8,8],"cacheKB":4}`},
	}
	for _, s := range singles {
		want, err := svc.Compute(context.Background(), s.path, []byte(s.body))
		if err != nil {
			t.Fatalf("single %s: %v", s.path, err)
		}
		want = bytes.TrimSuffix(want, []byte{'\n'})
		if !bytes.Equal(env.Items[s.item].Response, want) {
			t.Errorf("item %d differs from single %s:\nbatch:  %s\nsingle: %s",
				s.item, s.path, env.Items[s.item].Response, want)
		}
	}
	// The taxonomy items: bad path and short candidate row are 400s.
	for _, i := range []int{3, 7} {
		if env.Items[i].OK || env.Items[i].Status != 400 || env.Items[i].Error == "" {
			t.Errorf("item %d = %+v, want ok=false status=400 with error", i, env.Items[i])
		}
	}

	golden := filepath.Join("testdata", "batch_mixed.golden.json")
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
		t.Errorf("batch envelope differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestBatchCandidatesShareCache: a candidate row keys identically to the
// equivalent single /v1/predict, so the two share one cache entry in
// either order.
func TestBatchCandidatesShareCache(t *testing.T) {
	svc, m := newTestService(t)
	h := svc.Handler()
	single := `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}`
	batch := `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI","TJ","TK"],"sets":[[4,4,4]]}}`
	if w := post(t, h, "/v1/predict", single); w.Code != http.StatusOK {
		t.Fatalf("single: %d %s", w.Code, w.Body.String())
	}
	w := post(t, h, "/v1/batch", batch)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	c := m.Counters()
	if c["service.cache.misses"] != 1 || c["service.cache.hits"] != 1 {
		t.Errorf("cache misses=%d hits=%d, want 1/1 (candidate should share the single predict's entry)",
			c["service.cache.misses"], c["service.cache.hits"])
	}
}

// TestBatchErrors pins the batch-level error taxonomy. Item-level problems
// are covered by the golden fixture; these fail the whole request.
func TestBatchErrors(t *testing.T) {
	svc, _ := newTestService(t)
	h := svc.Handler()
	okCand := `"cacheKB":4,"dims":["TI"],"sets":[[4]]`
	okBatch := `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],` + okCand + `}}`
	cases := []struct {
		name, body string
		method     string
		wantCode   int
	}{
		{"get rejected", "", http.MethodGet, http.StatusMethodNotAllowed},
		{"bad json", `{"items":`, http.MethodPost, http.StatusBadRequest},
		{"empty batch", `{}`, http.MethodPost, http.StatusBadRequest},
		{"no items no candidates", `{"items":[]}`, http.MethodPost, http.StatusBadRequest},
		{"candidates without dims", `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":[],"sets":[[4]]}}`, http.MethodPost, http.StatusBadRequest},
		{"unknown dim", `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TX"],"sets":[[4]]}}`, http.MethodPost, http.StatusBadRequest},
		{"duplicate dim", `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI","TI"],"sets":[[4,4]]}}`, http.MethodPost, http.StatusBadRequest},
		{"candidates without capacity", `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"dims":["TI"],"sets":[[4]]}}`, http.MethodPost, http.StatusBadRequest},
		{"candidates bad spec", `{"candidates":{"kernel":"nope","n":16,` + okCand + `}}`, http.MethodPost, http.StatusBadRequest},
		{"trailing whitespace", okBatch + "\n ", http.MethodPost, http.StatusOK},
		{"trailing garbage", okBatch + "garbage", http.MethodPost, http.StatusBadRequest},
		{"two documents", okBatch + okBatch, http.MethodPost, http.StatusBadRequest},
		{"over-limit body", overLimit(okBatch), http.MethodPost, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, "/v1/batch", strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != tc.wantCode {
				t.Errorf("status %d, want %d (body %s)", w.Code, tc.wantCode, w.Body.String())
			}
		})
	}

	// Over-cap batches answer 429 whole, like any other overload.
	small := New(Config{Obs: obs.New(), Workers: 1, QueueDepth: 4, MaxBatchItems: 2})
	t.Cleanup(small.Close)
	hs := small.Handler()
	big := `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI"],"sets":[[1],[2],[4]]}}`
	if w := post(t, hs, "/v1/batch", big); w.Code != http.StatusTooManyRequests {
		t.Errorf("over-cap batch: status %d, want 429 (%s)", w.Code, w.Body.String())
	}
}

// waitUntil polls cond for up to 2 seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchAtomicAdmission: a cold batch needing more pool slots than the
// queue has free is rejected whole — 429, queue depth untouched, no
// partial enqueue — and the same batch succeeds wholesale once the queue
// clears.
func TestBatchAtomicAdmission(t *testing.T) {
	m := obs.New()
	svc := New(Config{Obs: m, Workers: 1, QueueDepth: 4})
	t.Cleanup(svc.Close)
	h := svc.Handler()

	release := make(chan struct{})
	block := func() { <-release }
	// Occupy the single worker, then fill three of the four queue slots,
	// leaving exactly one free.
	if !svc.pool.trySubmit(block) {
		t.Fatal("could not occupy worker")
	}
	waitUntil(t, "worker pickup", func() bool { return m.Gauges()["service.queue.depth"] == 0 })
	for i := 0; i < 3; i++ {
		if !svc.pool.trySubmit(block) {
			t.Fatalf("queue fill %d rejected", i)
		}
	}
	depthBefore := m.Gauges()["service.queue.depth"]

	// Three cold items > one free slot: the whole batch must bounce.
	batch := `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI"],"sets":[[1],[2],[4]]}}`
	w := post(t, h, "/v1/batch", batch)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", w.Code, w.Body.String())
	}
	if depth := m.Gauges()["service.queue.depth"]; depth != depthBefore {
		t.Errorf("queue depth %d after rejected batch, want %d (partial enqueue)", depth, depthBefore)
	}
	c := m.Counters()
	if c["service.batch.rejected"] != 1 || c["service.batch.requests"] != 1 {
		t.Errorf("batch counters %v, want requests=1 rejected=1", c)
	}
	if c["service.batch.items"] != 0 {
		t.Errorf("rejected batch counted %d items, want 0", c["service.batch.items"])
	}

	// Unblock; the same batch must now succeed completely — the rejection
	// left no half-computed state behind.
	close(release)
	waitUntil(t, "queue drain", func() bool { return m.Gauges()["service.queue.depth"] == 0 })
	w = post(t, h, "/v1/batch", batch)
	if w.Code != http.StatusOK {
		t.Fatalf("retry status %d: %s", w.Code, w.Body.String())
	}
	var env batchEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Summary.OK != 3 || env.Summary.Errors != 0 {
		t.Errorf("retry summary %+v, want ok=3 errors=0", env.Summary)
	}
}

// TestBatchPartialTimeout: when the wait deadline expires mid-batch the
// envelope still arrives as a 200 with per-item 504 records — partial
// failure is per-item, never a truncated response.
func TestBatchPartialTimeout(t *testing.T) {
	m := obs.New()
	svc := New(Config{Obs: m, Workers: 1, QueueDepth: 8, RequestTimeout: time.Nanosecond})
	t.Cleanup(svc.Close)
	h := svc.Handler()
	batch := `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI"],"sets":[[1],[2]]}}`
	w := post(t, h, "/v1/batch", batch)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 (%s)", w.Code, w.Body.String())
	}
	var env batchEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Summary.Errors == 0 {
		t.Skip("computation beat the nanosecond deadline") // effectively unreachable
	}
	for _, it := range env.Items {
		if !it.OK && it.Status != 504 {
			t.Errorf("timed-out item %d has status %d, want 504", it.Item, it.Status)
		}
	}
}

// TestBatchWarmAllocs: the cache-hot batch path — memoized plan, cache
// probes, pooled scratch — stays within 2 allocations per item.
func TestBatchWarmAllocs(t *testing.T) {
	svc := New(Config{Obs: obs.New(), Workers: 2, QueueDepth: 128})
	t.Cleanup(svc.Close)
	const items = 64
	var sets []string
	for i := 0; i < items; i++ {
		sets = append(sets, fmt.Sprintf("[%d,%d,%d]", 1+i%16, 1+(i/4)%16, 4))
	}
	body := []byte(`{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI","TJ","TK"],"sets":[` +
		strings.Join(sets, ",") + `]}}`)

	ctx := context.Background()
	run := func() {
		plan := svc.planBatch(body)
		if plan.err != nil {
			panic(plan.err)
		}
		sc := getBatchScratch()
		if err := svc.batchRun(plan, sc, false); err != nil {
			panic(err)
		}
		ok, errs := renderBatchEnvelope(plan, sc, func(i int, _ *itemPlan) ([]byte, error) {
			return entryResult(ctx, sc.entries[i])
		})
		if ok != items || errs != 0 {
			panic(fmt.Sprintf("ok=%d errs=%d", ok, errs))
		}
		putBatchScratch(sc)
	}
	run() // warm: populate plan memo, response cache, scratch capacity
	allocs := testing.AllocsPerRun(50, run)
	perItem := allocs / items
	t.Logf("warm batch: %.1f allocs/run, %.3f allocs/item", allocs, perItem)
	if perItem > 2 {
		t.Errorf("%.3f allocs per cache-hot item, want <= 2", perItem)
	}
}
