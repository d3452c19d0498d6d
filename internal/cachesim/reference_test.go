package cachesim

import (
	"math/bits"
	"sort"
)

// ReferenceSim is the original per-access stack simulator: a Fenwick
// (binary indexed) tree over timeline slots, walked once per query and once
// per update. It is kept verbatim as the differential ground truth for
// StackSim's hierarchical-bitset engine — a structurally independent
// implementation of the same specification, so a bug would have to be made
// twice to go unnoticed.
//
// It deliberately has no AccessBlock: it is the scalar pipeline, frozen.
// All counters (accesses, distinct, logical stack ops, compactions) and
// Results match StackSim exactly on the same trace.
type ReferenceSim struct {
	watches []int64
	sortedW []int64
	sortIdx []int
	missK   []int64
	siteK   [][]int64
	slotOf  []int64
	addrAt  []int64
	fen     []int64 // Fenwick tree over slots 1..cap
	clock   int64
	cap     int64
	active  int64
	res     Results

	ops         int64
	compactions int64
	flushed     struct{ accesses, distinct, ops, compactions int64 }

	// OnSD, if non-nil, receives every access's site and stack distance
	// (InfSD for first touches), exactly as StackSim.OnSD does.
	OnSD func(site int, sd int64)
}

// NewReferenceSim creates a reference simulator with the same contract as
// NewStackSim.
func NewReferenceSim(addrSpace int64, nSites int, watches []int64) *ReferenceSim {
	if addrSpace <= 0 {
		panic("cachesim: non-positive address space")
	}
	w := append([]int64(nil), watches...)
	capSlots := 2*addrSpace + 2
	s := &ReferenceSim{
		watches: w,
		slotOf:  make([]int64, addrSpace),
		addrAt:  make([]int64, capSlots+1),
		fen:     make([]int64, capSlots+1),
		clock:   1,
		cap:     capSlots,
	}
	for i := range s.addrAt {
		s.addrAt[i] = -1
	}
	s.sortIdx = make([]int, len(w))
	for i := range s.sortIdx {
		s.sortIdx[i] = i
	}
	sort.SliceStable(s.sortIdx, func(i, j int) bool { return w[s.sortIdx[i]] < w[s.sortIdx[j]] })
	s.sortedW = make([]int64, len(w))
	for k, idx := range s.sortIdx {
		s.sortedW[k] = w[idx]
	}
	s.missK = make([]int64, len(w)+1)
	s.siteK = make([][]int64, nSites)
	for i := range s.siteK {
		s.siteK[i] = make([]int64, len(w)+1)
	}
	s.res.Watches = w
	s.res.PerSite = make([]SiteStats, nSites)
	return s
}

func (s *ReferenceSim) fenAdd(i, delta int64) {
	s.ops++
	for ; i <= s.cap; i += i & (-i) {
		s.fen[i] += delta
	}
}

func (s *ReferenceSim) fenPrefix(i int64) int64 {
	s.ops++
	var sum int64
	for ; i > 0; i -= i & (-i) {
		sum += s.fen[i]
	}
	return sum
}

// Access processes one reference, exactly as StackSim.AccessBlock does.
func (s *ReferenceSim) Access(site int, addr int64) {
	s.res.Accesses++
	st := &s.res.PerSite[site]
	st.Accesses++

	old := s.slotOf[addr]
	var sd int64
	k := len(s.sortedW)
	if old == 0 {
		sd = InfSD
		s.active++
		s.res.Distinct++
		st.FirstTouch++
	} else {
		sd = s.active - s.fenPrefix(old) + 1
		s.fenAdd(old, -1)
		s.addrAt[old] = -1
		s.res.Hist[bits.Len64(uint64(sd))]++
		k = watchPrefix(s.sortedW, sd)
	}
	s.missK[k]++
	s.siteK[site][k]++
	if s.OnSD != nil {
		s.OnSD(site, sd)
	}

	if s.clock > s.cap {
		s.compact()
	}
	s.slotOf[addr] = s.clock
	s.addrAt[s.clock] = addr
	s.fenAdd(s.clock, 1)
	s.clock++
}

// compact renumbers active slots to 1..active and rebuilds the Fenwick tree
// with one fenAdd per surviving slot — the original formulation, whose
// per-slot fenAdd calls also produce the same ops total as StackSim's
// arithmetic rebuild.
func (s *ReferenceSim) compact() {
	s.compactions++
	for i := range s.fen {
		s.fen[i] = 0
	}
	next := int64(1)
	for slot := int64(1); slot <= s.cap; slot++ {
		addr := s.addrAt[slot]
		s.addrAt[slot] = -1
		if addr >= 0 && s.slotOf[addr] == slot {
			s.slotOf[addr] = next
			s.addrAt[next] = addr
			next++
		}
	}
	for slot := int64(1); slot < next; slot++ {
		s.fenAdd(slot, 1)
	}
	s.clock = next
}

// Results returns the accumulated results, in the same form as
// StackSim.Results.
func (s *ReferenceSim) Results() Results {
	out := s.res
	out.Watches = append([]int64(nil), s.res.Watches...)
	out.Misses = s.materialize(s.missK)
	out.PerSite = make([]SiteStats, len(s.res.PerSite))
	for i, ps := range s.res.PerSite {
		out.PerSite[i] = SiteStats{
			Accesses:   ps.Accesses,
			FirstTouch: ps.FirstTouch,
			Misses:     s.materialize(s.siteK[i]),
		}
	}
	return out
}

func (s *ReferenceSim) materialize(k []int64) []int64 {
	out := make([]int64, len(s.watches))
	var suffix int64
	for j := len(s.sortedW) - 1; j >= 0; j-- {
		suffix += k[j+1]
		out[s.sortIdx[j]] = suffix
	}
	return out
}
