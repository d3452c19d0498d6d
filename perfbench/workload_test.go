package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cluster"
	"repro/internal/service"
)

// The capacities of the service's response cache, plan memo and batch-plan
// memo at its default config, which a cold slice must exceed and the hot
// script must fit, and of its analysis cache, which a cold workload's nests
// must fit.
const (
	answerEntries    = 256
	planEntries      = 1024
	batchPlanEntries = 128
	analysisEntries  = 64
)

// keysOf returns the response-cache keys a request fills: its own, or one
// per batch row.
func keysOf(t *testing.T, r request) []string {
	t.Helper()
	if r.items < 1 || r.items > math.MaxUint8 {
		t.Fatalf("%s counts %d items; an outcome records 1 to %d", r.path, r.items, math.MaxUint8)
	}
	if r.path != "/v1/batch" {
		key, err := service.CanonicalKeyForRequest(r.path, r.body)
		if err != nil {
			t.Fatalf("%s %s: %v", r.path, r.body, err)
		}
		return []string{key}
	}
	exp, err := service.ExpandBatch(r.body, maxBatchItems)
	if err != nil {
		t.Fatalf("batch %s: %v", r.body, err)
	}
	var keys []string
	for _, it := range exp.Items {
		if it.Err != nil {
			t.Fatalf("batch row: %v", it.Err)
		}
		keys = append(keys, it.Key)
	}
	if len(keys) != r.items {
		t.Fatalf("batch counts %d items but expands to %d rows", r.items, len(keys))
	}
	return keys
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7)
		other, _ := newWorkload(name, 8)
		differ := false
		for c := 0; c < clients; c++ {
			for k := 0; k < 300; k++ {
				ra, rb := a.request(c, k), b.request(c, k)
				if ra.path != rb.path || !bytes.Equal(ra.body, rb.body) || ra.items != rb.items {
					t.Fatalf("%s: seed 7 generated two different requests %d for client %d", name, k, c)
				}
				differ = differ || !bytes.Equal(ra.body, other.request(c, k).body)
			}
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 generated the same requests", name)
		}
	}
}

// TestColdSlicesNeverRepeat checks that each cold client's slice repeats no
// body and no response key, shares none with the other client's, and is
// longer than every cache of the service could hold.
func TestColdSlicesNeverRepeat(t *testing.T) {
	const sliceLen = 1500
	for _, name := range []string{"point-cold", "search-cold", "simulate-cold"} {
		w, err := newWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		bodies, keys := map[string]bool{}, map[string]bool{}
		for c := 0; c < clients; c++ {
			nKeys, nBatches := 0, 0
			for k := 0; k < sliceLen; k++ {
				r := w.request(c, k)
				body := r.path + "\x00" + string(r.body)
				if bodies[body] {
					t.Fatalf("%s: client %d request %d repeats a body", name, c, k)
				}
				bodies[body] = true
				if r.path == "/v1/batch" {
					nBatches++
				}
				for _, key := range keysOf(t, r) {
					if keys[key] {
						t.Fatalf("%s: client %d request %d repeats a response key", name, c, k)
					}
					keys[key] = true
					nKeys++
				}
			}
			if sliceLen <= planEntries || nKeys <= answerEntries {
				t.Errorf("%s: slice of %d bodies and %d keys fits the plan memo (%d) or response cache (%d)",
					name, sliceLen, nKeys, planEntries, answerEntries)
			}
			if name == "point-cold" && nBatches <= batchPlanEntries {
				t.Errorf("%s: %d batches fit the batch-plan memo (%d)", name, nBatches, batchPlanEntries)
			}
		}
	}
}

// TestRoundsSendTheDeck checks that every round of search-cold and
// simulate-cold sends each shape of its deck once, whatever the seed: two
// seeds send the same mix, in other orders.
func TestRoundsSendTheDeck(t *testing.T) {
	decks := map[string]int{"search-cold": len(searchDeck), "simulate-cold": len(simulateDeck)}
	for name, n := range decks {
		orders := map[int64]string{}
		for _, seed := range []int64{7, 8} {
			w, err := newWorkload(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 3; round++ {
				seen := map[string]bool{}
				for pos := 0; pos < n; pos++ {
					u := round*n + pos
					var b replayBody
					if err := json.Unmarshal(w.request(u%clients, u/clients).body, &b); err != nil {
						t.Fatal(err)
					}
					shape := fmt.Sprintf("%s/%d/%d/%s", b.Kernel, b.N, b.Ways, b.Engine)
					if seen[shape] {
						t.Fatalf("%s seed %d: round %d sends %s twice", name, seed, round, shape)
					}
					seen[shape] = true
					orders[seed] += shape + " "
				}
			}
		}
		if orders[7] == orders[8] {
			t.Errorf("%s: seeds 7 and 8 send their rounds in the same order", name)
		}
	}
}

// TestColdNestsFitAnalysisCache checks that a cold workload's requests name
// fewer distinct nests than the service's analysis cache holds, so that the
// service analyzes each nest once, as the traced run's replay does.
func TestColdNestsFitAnalysisCache(t *testing.T) {
	for _, name := range []string{"point-cold", "search-cold", "simulate-cold"} {
		w, err := newWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		nests := map[string]bool{}
		for k := 0; k < 2000; k++ {
			r := w.request(k%clients, k/clients)
			var b replayBody
			if err := json.Unmarshal(r.body, &b); err != nil {
				t.Fatal(err)
			}
			nf := b.nestFields
			if b.Candidates != nil {
				nf = *b.Candidates
			}
			src, _, err := resolve(nf)
			if err != nil {
				t.Fatalf("%s request %d: %v", name, k, err)
			}
			nests[src] = true
		}
		if len(nests) >= analysisEntries {
			t.Errorf("%s names %d distinct nests; the analysis cache holds %d", name, len(nests), analysisEntries)
		}
	}
}

// TestHotScriptFitsEveryCache checks that serve-hot's keys, split over two
// replicas by the router's ring, fit each replica's response cache.
func TestHotScriptFitsEveryCache(t *testing.T) {
	w, err := newWorkload("serve-hot", 5)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := cluster.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	perReplica := map[string]map[string]bool{}
	for _, r := range w.script {
		for _, key := range keysOf(t, r) {
			owner := ring.Owner(key)
			if perReplica[owner] == nil {
				perReplica[owner] = map[string]bool{}
			}
			perReplica[owner][key] = true
		}
	}
	for owner, keys := range perReplica {
		if len(keys) > answerEntries {
			t.Errorf("replica %s owns %d keys, more than its %d-entry response cache", owner, len(keys), answerEntries)
		}
	}
	if len(w.script) > planEntries {
		t.Errorf("script of %d bodies overflows the plan memo and the router's key memo", len(w.script))
	}
}

// TestRequestsAreAnswered computes the first requests of every workload
// directly: none may fail, and simulations walk traces of about 1e5–1e6
// accesses.
func TestRequestsAreAnswered(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	for _, name := range workloadNames {
		w, err := newWorkload(name, 11)
		if err != nil {
			t.Fatal(err)
		}
		n := 12
		if w.script != nil {
			n = len(w.script)
		}
		for k := 0; k < n; k++ {
			r := w.request(k%clients, k/clients)
			data, err := svc.Compute(context.Background(), r.path, r.body)
			if err != nil {
				t.Fatalf("%s request %d (%s %s): %v", name, k, r.path, r.body, err)
			}
			if name == "simulate-cold" {
				if n := walkedAccesses(data); n < 5e4 || n > 1e6 {
					t.Errorf("%s request %d walks %d accesses, outside about 1e5–1e6", name, k, n)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names the workloads
// and per-layer metrics this program generates and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, want %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		lm := layerMetrics[i]
		if m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer metric %d is %+v, want %s %s %s", i, m, lm.name, lm.unit, lm.better)
		}
	}
}

func TestUniqIsABijection(t *testing.T) {
	const bits = 16
	seen := make([]bool, 1<<bits)
	for u := 0; u < 1<<bits; u++ {
		v := uniq(u, bits)
		if v < 0 || v >= 1<<bits || seen[v] {
			t.Fatalf("uniq(%d) = %d repeats or leaves [0, 2^%d)", u, v, bits)
		}
		seen[v] = true
	}
}
