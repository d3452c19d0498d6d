package cachesim

import "fmt"

// Hierarchy simulates a two-level inclusive cache hierarchy in one pass
// over the trace. Both levels are fully associative with LRU replacement,
// the model of the paper extended one level down: an access that misses L1
// probes L2; an access that misses both goes to memory.
//
// For fully-associative LRU caches, inclusion holds automatically
// (L2 ⊇ L1 whenever capL2 ≥ capL1), so a single stack-distance computation
// classifies each access: sd ≤ capL1 → L1 hit; capL1 < sd ≤ capL2 → L2
// hit; otherwise memory access.
type Hierarchy struct {
	capL1, capL2 int64
	sim          *StackSim
	zeroSites    []int32 // reusable all-zero site buffer for AccessBlock

	L1Hits      int64
	L2Hits      int64
	MemAccesses int64
}

// NewHierarchy builds a two-level hierarchy over a dense address space.
func NewHierarchy(addrSpace, capL1, capL2 int64) (*Hierarchy, error) {
	if capL1 <= 0 || capL2 < capL1 {
		return nil, fmt.Errorf("cachesim: invalid hierarchy capacities %d/%d", capL1, capL2)
	}
	h := &Hierarchy{capL1: capL1, capL2: capL2}
	h.sim = NewStackSim(addrSpace, 1, nil)
	h.sim.OnSD = func(_ int, sd int64) {
		switch {
		case sd != InfSD && sd <= h.capL1:
			h.L1Hits++
		case sd != InfSD && sd <= h.capL2:
			h.L2Hits++
		default:
			h.MemAccesses++
		}
	}
	return h, nil
}

// AccessBlock classifies a batch of references through the underlying
// batched stack simulator. All accesses share site 0; the zero-site buffer
// is grown on demand and reused between blocks.
func (h *Hierarchy) AccessBlock(addrs []int64) {
	if cap(h.zeroSites) < len(addrs) {
		h.zeroSites = make([]int32, len(addrs))
	}
	h.sim.AccessBlock(h.zeroSites[:len(addrs)], addrs)
}

// Accesses returns the total reference count.
func (h *Hierarchy) Accesses() int64 { return h.L1Hits + h.L2Hits + h.MemAccesses }

// AMAT returns the average memory access time for the given per-level hit
// costs (in arbitrary time units).
func (h *Hierarchy) AMAT(costL1, costL2, costMem float64) float64 {
	n := h.Accesses()
	if n == 0 {
		return 0
	}
	return (float64(h.L1Hits)*costL1 + float64(h.L2Hits)*costL2 + float64(h.MemAccesses)*costMem) / float64(n)
}
