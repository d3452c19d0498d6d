// Package cluster is the horizontal scale-out tier above internal/service:
// a consistent-hash router that shards canonical request keys across a set
// of analysisd replica backends.
//
// The design leans entirely on the spec canonicalization the serving layer
// already performs: every request resolves to one canonical key
// (service.CanonicalKeyForRequest — the same code path the replicas key
// their response caches with), the ring maps each key to one owning
// replica, and therefore each replica's singleflight LRU and analysis
// cache stay hot for exactly its key range. The cluster's aggregate cache
// capacity — not per-machine parallelism — is what the router buys: a
// working set that thrashes one replica's LRU fits in the union of N.
//
// Correctness never depends on routing: every replica computes the same
// bytes for the same request (responses are pure functions of the
// canonical spec), so hedged retries, drain-time remapping to ring
// successors and spillover under overload are always lossless. Routing
// only decides which caches get warm.
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the default number of virtual nodes per replica. 512
// points per replica keeps the max/min key-load ratio across replicas
// within ~1.3 (pinned by TestRingUniformity) while ring construction stays
// cheap enough to rebuild on membership changes.
const DefaultVNodes = 512

// Ring is an immutable consistent-hash ring over replica base URLs,
// constructed with NewRing. A membership change builds a new ring; keys move
// minimally by construction (TestRingMinimalMovement).
type Ring struct {
	replicas []string
	points   []ringPoint // sorted by hash, ties broken by replica index
}

// ringPoint is one virtual node: a hash position owned by a replica.
type ringPoint struct {
	hash    uint64
	replica int32
}

// hashKey positions a key (or virtual node label) on the ring: FNV-1a over
// the bytes, then a splitmix64 finalizer for avalanche — FNV alone
// correlates nearby inputs ("vnode 1" vs "vnode 2"), and the finalizer is
// what makes 512 vnodes spread evenly. Pure arithmetic on the bytes, so
// ring placement is deterministic across processes and runs (the router
// and any observer agree on ownership forever).
func hashKey(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// NewRing builds a ring over the given replica addresses with vnodes
// virtual nodes per replica (0 means DefaultVNodes). Replica order is
// irrelevant — addresses are sorted and deduplicated, so two routers
// configured with the same replica set in any order agree on every key's
// owner.
func NewRing(replicas []string, vnodes int) (*Ring, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one replica")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), replicas...)
	sort.Strings(sorted)
	uniq := sorted[:1]
	for _, r := range sorted[1:] {
		if r != uniq[len(uniq)-1] {
			uniq = append(uniq, r)
		}
	}
	r := &Ring{replicas: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for i, rep := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:    hashKey(fmt.Sprintf("%s\x00%d", rep, v)),
				replica: int32(i),
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica
	})
	return r, nil
}

// Replicas returns the ring's members, sorted.
func (r *Ring) Replicas() []string { return append([]string(nil), r.replicas...) }

// Owner returns the replica owning key: the replica of the first virtual
// node at or clockwise after the key's hash.
func (r *Ring) Owner(key string) string {
	return r.replicas[r.points[r.search(hashKey(key))].replica]
}

// search finds the index of the first point at or after h, wrapping.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Successors returns up to n distinct replicas for key in ring order: the
// owner first, then each subsequent distinct replica clockwise. This is
// the hedging and drain-handoff order — when the owner is slow, down or
// draining, its key range falls to exactly these successors, the same
// replicas that would own the keys if the owner left the ring.
func (r *Ring) Successors(key string, n int) []string {
	if n > len(r.replicas) {
		n = len(r.replicas)
	}
	if n <= 0 {
		return nil
	}
	out := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	start := r.search(hashKey(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, r.replicas[p.replica])
		}
	}
	return out
}
