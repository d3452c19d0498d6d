// Package cachesim provides exact cache simulation for element-granular
// reference traces. It substitutes for the SimpleScalar sim-cache simulator
// the paper validates against: StackSim computes the exact LRU stack
// distance of every access in a fully-associative cache (one pass, O(log d)
// per access), which simultaneously yields the miss count for every cache
// capacity. Set-associative and direct-mapped simulators are provided for
// sensitivity studies beyond the paper's fully-associative setting.
//
// Stack distance convention (matching the paper): the stack distance of an
// access is the number of distinct addresses touched since the previous
// access to the same address, *including the address itself* — i.e. the
// 1-based LRU stack depth. A first touch has infinite distance. An access is
// a miss in a fully-associative LRU cache of capacity C exactly when its
// stack distance is greater than C.
package cachesim

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/obs"
)

// InfSD is the sentinel stack distance reported for first touches.
const InfSD = int64(-1)

// SiteStats accumulates per-reference-site simulation results.
type SiteStats struct {
	Accesses   int64
	FirstTouch int64   // compulsory (infinite-distance) accesses
	Misses     []int64 // per watched capacity, same order as Results.Watches
}

// Results summarizes a completed simulation.
type Results struct {
	Accesses int64
	Distinct int64 // number of distinct addresses = compulsory misses
	Watches  []int64
	Misses   []int64 // total misses per watched capacity (incl. compulsory)
	// Hist[b] counts accesses whose stack distance sd satisfies
	// bits.Len(sd) == b, i.e. 2^(b-1) <= sd < 2^b. First touches are not in
	// the histogram; they are counted by Distinct.
	Hist [64]int64
	// PerSite is indexed by the site ids given to AccessBlock; sized by the
	// nSites argument of NewStackSim.
	PerSite []SiteStats
}

// MissRatio returns misses/accesses for the i-th watched capacity.
func (r Results) MissRatio(i int) float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses[i]) / float64(r.Accesses)
}

// StackSim is the exact fully-associative LRU stack simulator.
//
// It tracks, for every address in a dense address space, the "slot" of its
// most recent access on a virtual timeline, and counts how many addresses
// were touched more recently than a given slot with a two-level structure: a
// bitset of live slots (popcount answers the within-block part of a prefix
// count) under a small Fenwick tree over 256-slot blocks. For the address
// spaces of tiled kernels the bitset is a few KB — L1-resident — and a
// prefix count costs a handful of popcounts plus a walk over a ~100-entry
// tree, where the classic Fenwick-tree-over-slots it replaces walked
// O(log cap) cache lines of a tree hundreds of KB wide; the tests keep that
// original implementation as the differential ground truth. The timeline is
// periodically compacted so that memory stays proportional to the
// address-space size regardless of trace length.
type StackSim struct {
	watches []int64
	// Watched capacities in ascending order with the permutation back to the
	// caller's order. An access with stack distance sd misses exactly the
	// watches below sd — a prefix of sortedW — so per access the simulator
	// records only the prefix length k (one binary search, one increment)
	// and Results materializes per-watch miss counts by suffix-summing.
	sortedW []int64
	sortIdx []int
	missK   []int64   // missK[k]: accesses missing exactly the first k sorted watches
	siteK   [][]int64 // per site: same prefix-length counts
	slotOf  []int64   // per address: current slot, 0 = never accessed
	addrAt  []int64   // per slot: address occupying it, -1 = free
	live    []uint64  // bitset over slots: 1 = slot holds a live address
	blkFen  []int64   // Fenwick tree of live counts over 256-slot blocks
	nBlk    int64     // number of blocks (Fenwick index of block B is B+1)
	clock   int64     // next slot to assign
	cap     int64
	active  int64 // number of distinct addresses seen
	res     Results
	// Plain (non-atomic) operation counters: the simulator is single-
	// threaded and the hot path must not pay for synchronization. ops
	// counts logical stack operations (one per timeline prefix query or
	// live-slot update — a unit independent of the counting structure, so
	// totals are comparable across engines and stable in golden files);
	// compactions counts timeline rebuilds. FlushMetrics publishes them.
	ops         int64
	compactions int64
	flushed     struct{ accesses, distinct, ops, compactions int64 }
	// OnSD, if non-nil, receives every access's site and stack distance
	// (InfSD for first touches). Used by tests and model validation.
	OnSD func(site int, sd int64)
}

// NewStackSim creates a simulator for a dense address space of the given
// size (addresses 0..addrSpace-1), reporting per-site stats for site ids
// 0..nSites-1 and exact miss counts for each watched capacity.
func NewStackSim(addrSpace int64, nSites int, watches []int64) *StackSim {
	if addrSpace <= 0 {
		panic("cachesim: non-positive address space")
	}
	w := append([]int64(nil), watches...)
	capSlots := 2*addrSpace + 2
	s := &StackSim{
		watches: w,
		slotOf:  make([]int64, addrSpace),
		addrAt:  make([]int64, capSlots+1),
		live:    make([]uint64, capSlots>>6+2),
		nBlk:    capSlots>>blkShift + 1,
		clock:   1,
		cap:     capSlots,
	}
	s.blkFen = make([]int64, s.nBlk+1)
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

// watchPrefix returns the number of sorted watches strictly below sd — the
// length of the missed-watch prefix for a finite stack distance. The usual
// watch list is a handful of capacities, where a predictable linear scan
// beats binary search's data-dependent branches; longer lists fall back to
// binary search so the per-access cost stays O(log #watches).
func watchPrefix(sorted []int64, sd int64) int {
	if len(sorted) <= 8 {
		k := 0
		for k < len(sorted) && sorted[k] < sd {
			k++
		}
		return k
	}
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sorted[mid] < sd {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// blkShift sets the block granularity of the live-slot structure: 2^8 slots
// (four bitset words) per Fenwick-tree block. Smaller blocks shift cost from
// popcounts to tree walks and vice versa; 256 keeps the within-block scan at
// most four popcounts while the block tree for typical tiled-kernel address
// spaces stays around a hundred entries.
const blkShift = 8

// AccessBlock processes one batch of references (the trace.EmitBlock
// shape); it is the simulator's only access path. sites[i] indexes the
// per-site stats of the access at addrs[i]. Slice headers and the per-site
// stats base are hoisted out of the loop, the live-slot structure is walked
// inline, the operation/access counters are committed once per block, and
// the per-access watch scan is replaced by the missed-prefix length.
//
// A hit's stack distance is the number of live slots after its previous
// slot, counted by a block-tree prefix walk plus popcounts over the partial
// block. The removal and insertion exploit block locality: when the vacated
// slot and the new slot fall in the same 256-slot block — the common case
// for the short reuse distances of tiled kernels — the two block-tree
// updates cancel and the whole update is two bitset writes. Every counter
// (including ops, which counts logical operations: one query plus two
// updates per hit) and all Results are identical at any block size, and to
// the tests' reference simulator.
func (s *StackSim) AccessBlock(sites []int32, addrs []int64) {
	if len(addrs) == 0 {
		return
	}
	live := s.live
	blkFen := s.blkFen
	nBlk := s.nBlk
	slotOf := s.slotOf
	addrAt := s.addrAt
	sortedW := s.sortedW
	missK := s.missK
	siteK := s.siteK
	perSite := s.res.PerSite
	hist := &s.res.Hist
	onSD := s.OnSD
	clock, active := s.clock, s.active
	nw := len(sortedW)
	var ops, distinct int64
	for i, addr := range addrs {
		site := sites[i]
		st := &perSite[site]
		st.Accesses++
		old := slotOf[addr]
		var sd int64
		k := nw
		if old == 0 {
			sd = InfSD
			active++
			distinct++
			st.FirstTouch++
			ops++ // the insertion
			if clock > s.cap {
				s.clock, s.active = clock, active
				s.compact()
				clock = s.clock
			}
			slotOf[addr] = clock
			addrAt[clock] = addr
			live[clock>>6] |= 1 << uint(clock&63)
			for j := clock>>blkShift + 1; j <= nBlk; j += j & (-j) {
				blkFen[j]++
			}
			clock++
		} else {
			b := old >> blkShift
			var sum int64
			for j := b; j > 0; j -= j & (-j) {
				sum += blkFen[j]
			}
			w := old >> 6
			for j := b << (blkShift - 6); j < w; j++ {
				sum += int64(bits.OnesCount64(live[j]))
			}
			sum += int64(bits.OnesCount64(live[w] << (63 - uint(old&63))))
			sd = active - sum + 1
			(*hist)[bits.Len64(uint64(sd))]++
			k = watchPrefix(sortedW, sd)
			ops += 3 // prefix query, removal, insertion
			addrAt[old] = -1
			live[w] &^= 1 << uint(old&63)
			if clock > s.cap {
				// Finish the removal, then compact, then insert — the
				// reference simulator's order, so the trigger index and
				// resulting state match it exactly.
				for j := b + 1; j <= nBlk; j += j & (-j) {
					blkFen[j]--
				}
				s.clock, s.active = clock, active
				s.compact()
				clock = s.clock
				slotOf[addr] = clock
				addrAt[clock] = addr
				live[clock>>6] |= 1 << uint(clock&63)
				for j := clock>>blkShift + 1; j <= nBlk; j += j & (-j) {
					blkFen[j]++
				}
				clock++
			} else {
				live[clock>>6] |= 1 << uint(clock&63)
				if nb := clock >> blkShift; nb != b {
					for j := b + 1; j <= nBlk; j += j & (-j) {
						blkFen[j]--
					}
					for j := nb + 1; j <= nBlk; j += j & (-j) {
						blkFen[j]++
					}
				}
				slotOf[addr] = clock
				addrAt[clock] = addr
				clock++
			}
		}
		missK[k]++
		siteK[site][k]++
		if onSD != nil {
			onSD(int(site), sd)
		}
	}
	s.clock, s.active = clock, active
	s.ops += ops
	s.res.Accesses += int64(len(addrs))
	s.res.Distinct += distinct
}

// compact renumbers active slots to 1..active, preserving order, and
// rebuilds the live-slot structure. Runs O(cap) but only once per
// ~addrSpace accesses, so the amortized cost per access is O(1).
func (s *StackSim) compact() {
	s.compactions++
	next := int64(1)
	for slot := int64(1); slot <= s.cap; slot++ {
		addr := s.addrAt[slot]
		s.addrAt[slot] = -1
		if addr >= 0 && s.slotOf[addr] == slot {
			s.slotOf[addr] = next
			// addrAt for the new position is rewritten in place;
			// next <= slot always holds so no overwrite hazard.
			s.addrAt[next] = addr
			next++
		}
	}
	s.clock = next
	// After renumbering, exactly slots 1..occupied are live: fill the
	// bitset prefix and derive the per-block counts arithmetically, then
	// build the block tree bottom-up in O(nBlk). ops still counts the
	// logical per-slot insertions so stack_ops totals do not depend on the
	// rebuild strategy.
	occupied := next - 1
	for i := range s.live {
		s.live[i] = 0
	}
	lastW := occupied >> 6
	for w := int64(0); w < lastW; w++ {
		s.live[w] = ^uint64(0)
	}
	s.live[lastW] = ^uint64(0) >> (63 - uint(occupied&63))
	s.live[0] &^= 1 // slot 0 is never assigned
	for b := int64(0); b < s.nBlk; b++ {
		lo := b << blkShift
		if lo == 0 {
			lo = 1
		}
		hi := (b+1)<<blkShift - 1
		if hi > occupied {
			hi = occupied
		}
		if hi >= lo {
			s.blkFen[b+1] = hi - lo + 1
		} else {
			s.blkFen[b+1] = 0
		}
	}
	for i := int64(1); i <= s.nBlk; i++ {
		if j := i + i&(-i); j <= s.nBlk {
			s.blkFen[j] += s.blkFen[i]
		}
	}
	s.ops += occupied
}

// Results returns the accumulated results. The simulator may continue to be
// used afterwards; the returned struct is a snapshot. Per-watch miss counts
// are materialized here from the missed-prefix-length counters the access
// paths maintain.
func (s *StackSim) Results() Results {
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

// materialize converts missed-prefix-length counts into per-watch miss
// counts in the caller's original watch order: the misses at the j-th
// sorted watch are the accesses whose missed prefix extends beyond j.
func (s *StackSim) materialize(k []int64) []int64 {
	out := make([]int64, len(s.watches))
	var suffix int64
	for j := len(s.sortedW) - 1; j >= 0; j-- {
		suffix += k[j+1]
		out[s.sortIdx[j]] = suffix
	}
	return out
}

// FlushMetrics publishes the simulator's operation totals accumulated since
// the previous flush into the registry's "cachesim.*" counters: accesses,
// distinct addresses, logical stack operations and timeline compactions. Counters (not gauges) so that several simulator instances in
// one run — e.g. a multi-capacity validation sweep — aggregate naturally.
// Nil registry is a no-op. The simulator itself never touches the registry
// on its access path, keeping the hot loop synchronization-free.
func (s *StackSim) FlushMetrics(m *obs.Metrics) {
	if m == nil {
		return
	}
	m.Counter("cachesim.accesses").Add(s.res.Accesses - s.flushed.accesses)
	m.Counter("cachesim.distinct").Add(s.res.Distinct - s.flushed.distinct)
	m.Counter("cachesim.stack_ops").Add(s.ops - s.flushed.ops)
	m.Counter("cachesim.compactions").Add(s.compactions - s.flushed.compactions)
	s.flushed.accesses = s.res.Accesses
	s.flushed.distinct = s.res.Distinct
	s.flushed.ops = s.ops
	s.flushed.compactions = s.compactions
}

// MissesFor returns the exact miss count for the watched capacity c.
func (r Results) MissesFor(c int64) (int64, error) {
	for i, w := range r.Watches {
		if w == c {
			return r.Misses[i], nil
		}
	}
	return 0, fmt.Errorf("cachesim: capacity %d was not watched (watches: %v)", c, r.Watches)
}

// SDHistogramString renders the non-empty histogram buckets, for reports.
func (r Results) SDHistogramString() string {
	out := ""
	for b := 1; b < 64; b++ {
		if r.Hist[b] == 0 {
			continue
		}
		lo := int64(1) << uint(b-1)
		hi := int64(1)<<uint(b) - 1
		out += fmt.Sprintf("  sd %8d..%-8d : %d\n", lo, hi, r.Hist[b])
	}
	out += fmt.Sprintf("  sd        inf       : %d\n", r.Distinct)
	return out
}
