package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

func testReplicas(n int) []string {
	reps := make([]string, n)
	for i := range reps {
		reps[i] = fmt.Sprintf("http://replica-%d:8080", i)
	}
	return reps
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real shard keys: a canonical nest text plus packed
		// env bindings.
		keys[i] = fmt.Sprintf("loop i 0 N { A[i]; }\x00N=%d;T=%d", i, i%7)
	}
	return keys
}

// TestRingUniformity pins the load-spread guarantee 512 vnodes buys: across
// 2, 4 and 8 replicas the busiest replica sees at most ~1.35x the quietest
// one's keys. The assertion is deterministic — same hash, same keys, same
// counts on every run and platform.
func TestRingUniformity(t *testing.T) {
	keys := testKeys(20000)
	for _, n := range []int{2, 4, 8} {
		ring, err := NewRing(testReplicas(n), DefaultVNodes)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		for _, k := range keys {
			counts[ring.Owner(k)]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d replicas own keys", n, len(counts))
		}
		min, max := len(keys), 0
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		ratio := float64(max) / float64(min)
		t.Logf("n=%d: min=%d max=%d ratio=%.3f", n, min, max, ratio)
		if ratio > 1.35 {
			t.Errorf("n=%d: max/min load ratio %.3f exceeds 1.35 (min=%d max=%d)", n, ratio, min, max)
		}
	}
}

// TestRingMinimalMovement pins consistent hashing's point: growing N→N+1
// remaps about 1/(N+1) of keys, all of them onto the new replica; shrinking
// remaps only the removed replica's keys, all onto survivors.
func TestRingMinimalMovement(t *testing.T) {
	keys := testKeys(20000)
	for _, n := range []int{2, 4, 8} {
		reps := testReplicas(n)
		ring, err := NewRing(reps, DefaultVNodes)
		if err != nil {
			t.Fatal(err)
		}
		added := fmt.Sprintf("http://replica-%d:8080", n)
		grown, err := NewRing(append(ring.Replicas(), added), DefaultVNodes)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for _, k := range keys {
			was, is := ring.Owner(k), grown.Owner(k)
			if was == is {
				continue
			}
			moved++
			if is != added {
				t.Fatalf("n=%d: key moved %s -> %s, not to the added replica", n, was, is)
			}
		}
		ideal := float64(len(keys)) / float64(n+1)
		t.Logf("n=%d add: moved=%d ideal=%.0f", n, moved, ideal)
		if float64(moved) > 1.5*ideal {
			t.Errorf("n=%d: add moved %d keys, ideal %.0f — more than 1.5x minimal", n, moved, ideal)
		}
		if moved == 0 {
			t.Errorf("n=%d: add moved no keys", n)
		}

		// Removing what we added must restore the original assignment
		// exactly — membership changes are invertible.
		back, err := NewRing(without(grown.Replicas(), added), DefaultVNodes)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if ring.Owner(k) != back.Owner(k) {
				t.Fatalf("n=%d: add+remove changed owner of %q", n, k)
			}
		}

		// Shrinking: only the removed replica's keys move.
		victim := reps[0]
		shrunk, err := NewRing(without(reps, victim), DefaultVNodes)
		if err != nil {
			t.Fatal(err)
		}
		moved = 0
		for _, k := range keys {
			was, is := ring.Owner(k), shrunk.Owner(k)
			if was != is {
				moved++
				if was != victim {
					t.Fatalf("n=%d: remove moved a key owned by %s", n, was)
				}
				if is == victim {
					t.Fatalf("n=%d: removed replica still owns a key", n)
				}
			} else if was == victim {
				t.Fatalf("n=%d: removed replica kept a key", n)
			}
		}
		if moved == 0 {
			t.Errorf("n=%d: remove moved no keys", n)
		}
	}
}

// TestRingDeterminism pins that ownership is a pure function of the
// replica set and the key — independent of configuration order and of the
// process computing it (two independently built rings agree on everything).
func TestRingDeterminism(t *testing.T) {
	keys := testKeys(2000)
	reps := testReplicas(5)
	shuffled := append([]string(nil), reps...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a, err := NewRing(reps, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(shuffled, DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("replica order changed owner of %q: %s vs %s", k, a.Owner(k), b.Owner(k))
		}
		sa, sb := a.Successors(k, 3), b.Successors(k, 3)
		if fmt.Sprint(sa) != fmt.Sprint(sb) {
			t.Fatalf("replica order changed successors of %q: %v vs %v", k, sa, sb)
		}
	}
	// The hash itself is pinned: a changed hash silently remaps every key in
	// a mixed-version cluster, so a change must be deliberate.
	if got := hashKey("cluster determinism probe"); got != 0xf08eb0f94e9d63c4 {
		t.Errorf("hashKey changed: got %#x", got)
	}
}

// TestRingSuccessors pins the hedge/handoff order contract: the owner
// first, then distinct replicas, never more than the membership.
func TestRingSuccessors(t *testing.T) {
	ring, err := NewRing(testReplicas(4), DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(200) {
		succ := ring.Successors(k, 10)
		if len(succ) != 4 {
			t.Fatalf("Successors returned %d replicas for a 4-replica ring", len(succ))
		}
		if succ[0] != ring.Owner(k) {
			t.Fatalf("Successors[0] %s is not the owner %s", succ[0], ring.Owner(k))
		}
		seen := map[string]bool{}
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("duplicate successor %s", s)
			}
			seen[s] = true
		}
		if got := ring.Successors(k, 2); len(got) != 2 || got[0] != succ[0] || got[1] != succ[1] {
			t.Fatalf("Successors(k,2) = %v, want prefix of %v", got, succ)
		}
	}
}

// TestRingValidation covers the constructor's edges: empty set and
// duplicate replicas.
func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("NewRing accepted an empty replica set")
	}
	ring, err := NewRing([]string{"http://a", "http://a", "http://b"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := ring.Replicas(); len(got) != 2 {
		t.Errorf("duplicates not collapsed: %v", got)
	}
}

// without returns reps minus drop: the membership of a ring that lost it.
func without(reps []string, drop string) []string {
	var rest []string
	for _, rep := range reps {
		if rep != drop {
			rest = append(rest, rep)
		}
	}
	return rest
}
