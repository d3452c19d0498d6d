package service

import (
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
)

// TestDrainUnderStorm is the lifecycle race test: 64 goroutines hammer
// every endpoint over real TCP while the server drains. The guarantees
// under test:
//
//   - every accepted request gets a real HTTP answer — transport errors
//     are legal only once the drain has begun (listener closed, idle
//     connections torn down), never before;
//   - only the documented statuses appear (200, 400, 429 overload,
//     503 draining, 504 timeout);
//   - the metric balance service.<ep>.requests == ok + errors + rejected
//     holds after the drain, i.e. no handler path leaks a request;
//   - Drain returns with the worker queue empty and a subsequent request
//     cannot sneak in.
//
// Run under -race (make check does) to make the memory-ordering claims
// meaningful.
func TestDrainUnderStorm(t *testing.T) {
	m := obs.New()
	// A tiny pool and queue so the storm actually trips admission control:
	// we want 429s in the mix, not just 200s.
	svc := New(Config{Obs: m, Workers: 2, QueueDepth: 4, CacheEntries: 8})
	sv, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + sv.Addr()

	// Mixed script: cheap predicts (several keys so the cache churns),
	// an analyze, a simulate, small searches, and malformed requests for
	// the error path.
	script := make([]struct{ path, body string }, 0, 8)
	for i := 0; i < 5; i++ {
		script = append(script, struct{ path, body string }{
			"/v1/predict",
			fmt.Sprintf(`{"kernel":"matmul","n":16,"tiles":[%d,%d,%d],"cacheKB":4}`, 2<<uint(i%3), 4, 4),
		})
	}
	script = append(script,
		struct{ path, body string }{"/v1/analyze", `{"kernel":"matmul","n":16,"tiles":[4,4,4]}`},
		struct{ path, body string }{"/v1/simulate", `{"kernel":"matmul","n":8,"tiles":[4,4,4],"watchKB":[1]}`},
		struct{ path, body string }{"/v1/predict", `{"kernel":"matmul","n":16}`}, // 400: no capacity
		// Batch traffic in the mix: a candidates sweep (multi-slot atomic
		// admission racing the singles), a heterogeneous items batch, and a
		// malformed batch for the error path.
		struct{ path, body string }{"/v1/batch", `{"candidates":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4,"dims":["TI","TJ","TK"],"sets":[[2,4,4],[4,4,4],[8,4,4]]}}`},
		struct{ path, body string }{"/v1/batch", `{"items":[{"path":"/v1/analyze","request":{"kernel":"matmul","n":16,"tiles":[4,4,4]}},{"path":"/v1/predict","request":{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":4}}]}`},
		struct{ path, body string }{"/v1/batch", `{}`}, // 400: empty batch
		// Both searches, plain and streamed: the stream handlers share the
		// lifecycle and must balance their counters too.
		struct{ path, body string }{"/v1/tilesearch", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":1,"dims":{"TI":16}}`},
		struct{ path, body string }{"/v1/tilesearch?stream=1", `{"kernel":"matmul","n":16,"tiles":[4,4,4],"cacheKB":1,"dims":{"TI":16,"TJ":16}}`},
		struct{ path, body string }{"/v1/optimize", `{"kernel":"twoindexchain","n":8,"cacheElems":64,"autoTile":false}`},
		struct{ path, body string }{"/v1/optimize?stream=1", `{"kernel":"twoindexchain","n":8,"cacheElems":32,"autoTile":false}`},
	)

	var drainStarted atomic.Bool
	var statuses [600]atomic.Int64 // indexed by status code
	var transportErrsBeforeDrain atomic.Int64

	const goroutines = 64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := script[i%len(script)]
				resp, err := client.Post(base+req.path, "application/json", strings.NewReader(req.body))
				if err != nil {
					if !drainStarted.Load() {
						transportErrsBeforeDrain.Add(1)
					}
					// Post-drain transport errors are expected; back off
					// until the main goroutine closes stop.
					time.Sleep(time.Millisecond)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode < len(statuses) {
					statuses[resp.StatusCode].Add(1)
				}
			}
		}(g)
	}

	// Let the storm rage, then drain mid-flight.
	time.Sleep(100 * time.Millisecond)
	drainStarted.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(stop)
	wg.Wait()

	if n := transportErrsBeforeDrain.Load(); n != 0 {
		t.Errorf("%d transport errors before drain began (requests dropped)", n)
	}
	allowed := map[int]bool{200: true, 400: true, 429: true, 503: true, 504: true}
	for code := 0; code < len(statuses); code++ {
		if n := statuses[code].Load(); n > 0 && !allowed[code] {
			t.Errorf("unexpected status %d seen %d times", code, n)
		}
	}
	if statuses[200].Load() == 0 {
		t.Error("storm produced no successful responses")
	}

	// Metric balance: no handler path may leak a request.
	c := m.Counters()
	var sum int64
	for _, ep := range []string{"analyze", "predict", "tilesearch", "optimize", "simulate", "batch"} {
		req := c["service."+ep+".requests"]
		acc := c["service."+ep+".ok"] + c["service."+ep+".errors"] + c["service."+ep+".rejected"]
		if req != acc {
			t.Errorf("%s: requests %d != ok+errors+rejected %d", ep, req, acc)
		}
		sum += req
	}
	if total := c["service.requests"]; total != sum {
		t.Errorf("service.requests %d != per-endpoint sum %d", total, sum)
	}
	// Per-item accounting balances the same way: every admitted batch item
	// resolves to exactly one of ok/errors.
	if items, acc := c["service.batch.items"], c["service.batch.items.ok"]+c["service.batch.items.errors"]; items != acc {
		t.Errorf("service.batch.items %d != items.ok+items.errors %d", items, acc)
	}
	if depth := m.Gauges()["service.queue.depth"]; depth != 0 {
		t.Errorf("queue depth %d after drain, want 0", depth)
	}

	// The drained server refuses further work.
	if _, err := http.Post(base+"/v1/analyze", "application/json",
		strings.NewReader(`{"kernel":"matmul","n":16,"tiles":[4,4,4]}`)); err == nil {
		t.Error("request succeeded after drain; listener should be closed")
	}
}

// TestDrainIdle: draining an idle server returns promptly and is
// idempotent at the Service level.
func TestDrainIdle(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 1})
	sv, err := Serve("127.0.0.1:0", svc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	svc.Close() // second close must not panic
}
