package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// sweepKeys is the size of the key sweep: more than one replica's response
// cache holds (sweepCacheEntries), and at most that many per replica once
// four replicas split it.
const (
	sweepKeys            = 24
	sweepCacheEntries    = 20
	sweepAnalysisEntries = 16
)

// sweepNest renders the i-th distinct spec of the sweep: a tiled
// matmul-shaped nest whose name embeds i, so each spec canonicalizes to its
// own nest text, with its own response key and its own analysis-cache
// entry.
func sweepNest(i int) string {
	return fmt.Sprintf(`nest sweep%03d
array A[N, N]
array B[N, N]
array C[N, N]
array D[N, N]
array E[N, N]
array F[N, N]
array G[N, N]

for iT = ceil(N/TI) {
  for jT = ceil(N/TJ) {
    for iI = TI { for jI = TJ {
      S0: C[iT*TI + iI, jT*TJ + jI] = 0
    } }
    for iI = TI { for jI = TJ {
      S1: E[iT*TI + iI, jT*TJ + jI] = 0
    } }
    for iI = TI { for jI = TJ {
      S2: G[iT*TI + iI, jT*TJ + jI] = 0
    } }
    for kT = ceil(N/TK) {
      for iI = TI { for jI = TJ { for kI = TK {
        S3: C[iT*TI + iI, jT*TJ + jI] += A[iT*TI + iI, kT*TK + kI] * B[kT*TK + kI, jT*TJ + jI]
      } } }
      for iI = TI { for jI = TJ { for kI = TK {
        S4: E[iT*TI + iI, jT*TJ + jI] += C[iT*TI + iI, kT*TK + kI] * D[kT*TK + kI, jT*TJ + jI]
      } } }
      for iI = TI { for jI = TJ { for kI = TK {
        S5: G[iT*TI + iI, jT*TJ + jI] += E[iT*TI + iI, kT*TK + kI] * F[kT*TK + kI, jT*TJ + jI]
      } } }
    }
  }
}
`, i)
}

func sweepBody(t *testing.T, i int) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"nest":    sweepNest(i),
		"env":     map[string]int64{"N": 64, "TI": 8, "TJ": 8, "TK": 8},
		"cacheKB": 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sweepScript returns the sweep's predict bodies and the bytes a direct
// Service.Compute answers for each.
func sweepScript(t *testing.T) (bodies, want [][]byte) {
	t.Helper()
	oracle := service.New(service.Config{Workers: 1, CacheEntries: 2 * sweepKeys, AnalysisEntries: 2 * sweepKeys})
	defer oracle.Close()
	for i := 0; i < sweepKeys; i++ {
		body := sweepBody(t, i)
		w, err := oracle.Compute(context.Background(), "/v1/predict", body)
		if err != nil {
			t.Fatalf("direct compute of sweep spec %d: %v", i, err)
		}
		bodies, want = append(bodies, body), append(want, w)
	}
	return bodies, want
}

// sweepPass posts every sweep body through the cluster once, in order, and
// checks each answer against the direct computation.
func sweepPass(t *testing.T, lc *Local, bodies, want [][]byte) {
	t.Helper()
	client := &http.Client{}
	for i, body := range bodies {
		status, got := post(t, client, lc.URL(), trafficRequest{"/v1/predict", "", string(body)})
		if status != http.StatusOK || !bytes.Equal(got, want[i]) {
			t.Fatalf("sweep spec %d: got %d %q, want 200 %q", i, status, got, want[i])
		}
	}
}

func closeLocal(lc *Local) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	lc.Close(ctx)
}

// TestClusterAggregateCacheCapacity is the scale-out claim as a count.
// The sweep has more keys than one replica's response cache holds, so a
// sequential pass through one replica evicts every key before its next
// use, and a second pass hits nothing. Four replicas split the keys, each
// share fits its owner's cache, and every request of the second pass is a
// response-cache hit.
func TestClusterAggregateCacheCapacity(t *testing.T) {
	bodies, want := sweepScript(t)
	for _, tc := range []struct{ replicas, hits int }{{1, 0}, {4, sweepKeys}} {
		t.Run(fmt.Sprintf("replicas=%d", tc.replicas), func(t *testing.T) {
			m := obs.New()
			lc, err := StartLocal(tc.replicas, service.Config{
				Workers:         1,
				CacheEntries:    sweepCacheEntries,
				AnalysisEntries: sweepAnalysisEntries,
				Obs:             m,
			}, Config{Hedge: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer closeLocal(lc)
			sweepPass(t, lc, bodies, want)
			warm := m.Counters()["service.cache.hits"]
			sweepPass(t, lc, bodies, want)
			if got := int(m.Counters()["service.cache.hits"] - warm); got != tc.hits {
				t.Errorf("second pass made %d response-cache hits, want %d", got, tc.hits)
			}
		})
	}
}

// TestClusterHedgesNotCached: with a hedge interval of a nanosecond, every
// request the router sends to a key's owner also goes to the owner's ring
// successors, and each of them computes the answer. The owners are warmed
// first, so whichever attempt wins, each key must stay cached on its owner
// alone once the replicas have finished their work.
func TestClusterHedgesNotCached(t *testing.T) {
	bodies, want := sweepScript(t)
	m := obs.New()
	lc, err := StartLocal(4, service.Config{Workers: 1}, Config{Hedge: time.Nanosecond, Obs: m})
	if err != nil {
		t.Fatal(err)
	}
	defer closeLocal(lc)
	client := &http.Client{}
	for i, body := range bodies {
		key, err := service.CanonicalKeyForRequest("/v1/predict", body)
		if err != nil {
			t.Fatal(err)
		}
		if status, _ := post(t, client, lc.Router().ring.Owner(key), trafficRequest{"/v1/predict", "", string(body)}); status != http.StatusOK {
			t.Fatalf("warming sweep spec %d on its owner: status %d", i, status)
		}
	}
	sweepPass(t, lc, bodies, want)
	if m.Counters()["router.hedges"] == 0 {
		t.Fatal("no request hedged")
	}
	// Draining a replica runs its accepted computations to completion, so
	// the counts below are final.
	total := int64(0)
	for i := range lc.Replicas() {
		if err := lc.DrainReplica(context.Background(), i); err != nil {
			t.Fatal(err)
		}
		total += lc.ReplicaServer(i).Service.Health().FlightCacheEntries
	}
	if total != sweepKeys {
		t.Errorf("replica caches hold %d entries in total, want %d distinct keys", total, sweepKeys)
	}
}
