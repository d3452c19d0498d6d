package cachesim

import (
	"math/rand"
	"testing"
)

// levels splits the accesses of a simulation watching {L1, L2} by the level
// of a two-level inclusive LRU hierarchy that serves them: L1 hits are the
// accesses that fit L1, L2 hits the L1 misses that fit L2, and memory
// accesses the L2 misses.
func levels(r Results) (l1, l2, mem int64) {
	return r.Accesses - r.Misses[0], r.Misses[0] - r.Misses[1], r.Misses[1]
}

func TestHierarchyClassification(t *testing.T) {
	sim := NewStackSim(64, 1, []int64{2, 4})
	// Trace: a b c d a — distances: inf inf inf inf, then a at depth 4.
	for _, addr := range []int64{0, 1, 2, 3, 0} {
		sim.access(0, addr)
	}
	if l1, l2, mem := levels(sim.Results()); l1 != 0 || l2 != 1 || mem != 4 {
		t.Errorf("L1 %d, L2 %d, memory %d hits; want 0, 1 (sd 4 fits L2 not L1), 4", l1, l2, mem)
	}
	sim.access(0, 0) // immediate re-access: sd 1 → L1
	if l1, l2, mem := levels(sim.Results()); l1 != 1 || l1+l2+mem != 6 {
		t.Errorf("L1 hits %d of %d accesses, want 1 of 6", l1, l1+l2+mem)
	}
}

// TestHierarchyConsistentWithSeparateSims checks the two-watch level counts
// against a separate simulator that classifies every access by its stack
// distance: sd ≤ L1 hits L1, L1 < sd ≤ L2 hits L2, the rest go to memory.
func TestHierarchyConsistentWithSeparateSims(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const space, capL1, capL2 = 96, 8, 32
	both := NewStackSim(space, 1, []int64{capL1, capL2})
	perAccess := NewStackSim(space, 1, nil)
	var want [3]int64 // L1, L2, memory
	perAccess.OnSD = func(_ int, sd int64) {
		switch {
		case sd != InfSD && sd <= capL1:
			want[0]++
		case sd != InfSD && sd <= capL2:
			want[1]++
		default:
			want[2]++
		}
	}
	for i := 0; i < 40000; i++ {
		addr := int64(r.Intn(space))
		both.access(0, addr)
		perAccess.access(0, addr)
	}
	if l1, l2, mem := levels(both.Results()); [3]int64{l1, l2, mem} != want {
		t.Errorf("levels (L1, L2, memory) %d, %d, %d; per-access classification %v", l1, l2, mem, want)
	}
}
