package cachesim

import "testing"

func TestReuseTrackerBasics(t *testing.T) {
	r := NewReuseTracker(8, []int64{2})
	if d := r.Access(0); d != -1 {
		t.Errorf("first touch distance %d", d)
	}
	r.Access(1)
	if d := r.Access(0); d != 2 {
		t.Errorf("reuse distance %d want 2", d)
	}
	m, ok := r.MissesUnderThreshold(2)
	if !ok || m != 2 { // two first touches; the reuse at distance 2 fits
		t.Errorf("misses %d ok=%v", m, ok)
	}
	if _, ok := r.MissesUnderThreshold(99); ok {
		t.Error("unwatched threshold reported")
	}
}

// TestReuseDistanceOverpredicts reproduces §3's argument: a trace that
// repeatedly sweeps a tiny buffer between touches of a cold element has a
// huge reuse distance but a tiny stack distance; the reuse-distance model
// predicts misses that LRU (stack distance) correctly calls hits.
func TestReuseDistanceOverpredicts(t *testing.T) {
	const buf = 4      // tiny working set
	const sweeps = 100 // accesses between X touches: 4·100 = 400
	const capacity = 8 // cache comfortably holds buf + X

	reuse := NewReuseTracker(16, []int64{capacity})
	stack := NewStackSim(16, 1, []int64{capacity})
	touch := func(addr int64) {
		reuse.Access(addr)
		stack.access(0, addr)
	}
	for rep := 0; rep < 10; rep++ {
		touch(15) // the reused element X
		for s := 0; s < sweeps; s++ {
			for b := int64(0); b < buf; b++ {
				touch(b)
			}
		}
	}
	stackMisses, _ := stack.Results().MissesFor(capacity)
	reuseMisses, _ := reuse.MissesUnderThreshold(capacity)
	// Stack distance: only compulsory misses (5 distinct addresses).
	if stackMisses != 5 {
		t.Errorf("stack-distance misses %d want 5 (compulsory only)", stackMisses)
	}
	// Reuse distance: every X touch after the first looks like a miss
	// (distance ~400 > 8), plus all re-touches of the buffer across sweeps
	// are hits (distance 4 <= 8). So ≥ 9 extra false misses.
	if reuseMisses < stackMisses+9 {
		t.Errorf("reuse-distance model predicted %d misses, expected to over-predict vs %d",
			reuseMisses, stackMisses)
	}
}

func TestReuseTrackerHistogram(t *testing.T) {
	r := NewReuseTracker(4, nil)
	r.Access(0)
	r.Access(0) // distance 1 -> bucket 1
	r.Access(1)
	r.Access(0) // distance 2 -> bucket 2
	if r.Hist[1] != 1 || r.Hist[2] != 1 {
		t.Errorf("hist %v", r.Hist[:4])
	}
	if r.First != 2 || r.Accesses != 4 {
		t.Errorf("first %d accesses %d", r.First, r.Accesses)
	}
}
