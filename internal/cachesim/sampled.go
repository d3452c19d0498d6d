package cachesim

import (
	"math"

	"repro/internal/obs"
)

// SampledSim estimates the exact simulator's results from a spatial sample
// of the address space, after SHARDS (Waldspurger et al.): an address is
// sampled when a seeded hash of it falls in the lowest 2^-k fraction of the
// hash range, every access to a sampled address is played through an inner
// StackSim, and a sampled stack distance d stands for a full-trace distance
// of d·2^k — so the inner simulator watches capacity c>>k to decide misses
// at capacity c. Miss counts are scaled back up by the observed sampling
// ratio and first-touch counts by 2^k (address sampling is uniform over
// addresses, so distinct-address counts scale exactly by the rate).
//
// The estimator is deterministic: the sample is a pure function of
// (address, Seed), so results are identical across block sizes and runs,
// and Log2Rate 0 degenerates to the exact simulator bit-for-bit.
//
// MissBound reports a Hoeffding-style half-width on the estimated miss
// counts: treating the s sampled accesses as draws of the miss indicator,
// the miss ratio is off by more than sqrt(ln(2/δ)/2s) with probability at
// most δ. Sampled accesses are not independent draws, so the bound is a
// calibrated envelope rather than a theorem; the differential harness in
// internal/validate measures how often the exact count actually falls
// inside it (≥95% over the corpus) and CI enforces that rate.
type SampledSim struct {
	inner   *StackSim
	k       uint
	seed    uint64
	watches []int64 // caller's capacities, unscaled

	total     int64   // all accesses, sampled or not
	siteTotal []int64 // per site: all accesses

	scratchSites []int32
	scratchAddrs []int64

	flushedTotal, flushedKept int64
}

// DefaultSampleSeed seeds the sampling hash when the caller has no
// preference; a fixed odd constant keeps served results reproducible.
const DefaultSampleSeed = 0x9E3779B97F4A7C15

// DefaultLog2Rate picks the sampling rate for an address space: the
// smallest k for which the expected sampled address count fits a ~64K
// budget (the regime where the inner simulator's state is L2-resident).
// Address spaces at or below the budget return 0 — exact simulation.
func DefaultLog2Rate(addrSpace int64) int {
	k := 0
	for addrSpace>>uint(k) > 1<<16 {
		k++
	}
	return k
}

// NewSampledSim creates a sampled simulator with the same contract as
// NewStackSim plus the sampling rate 2^-log2Rate and hash seed. log2Rate
// below 1 samples everything; seed 0 selects DefaultSampleSeed.
func NewSampledSim(addrSpace int64, nSites int, watches []int64, log2Rate int, seed uint64) *SampledSim {
	if log2Rate < 0 {
		log2Rate = 0
	}
	if seed == 0 {
		seed = DefaultSampleSeed
	}
	w := append([]int64(nil), watches...)
	scaled := make([]int64, len(w))
	for i, c := range w {
		scaled[i] = c >> uint(log2Rate)
	}
	return &SampledSim{
		inner:     NewStackSim(addrSpace, nSites, scaled),
		k:         uint(log2Rate),
		seed:      seed,
		watches:   w,
		siteTotal: make([]int64, nSites),
	}
}

// sampleHash is splitmix64's finalizer over the seeded address: a cheap
// statistically uniform mixer, so the top k bits select an unbiased 2^-k
// address sample.
func sampleHash(x, seed uint64) uint64 {
	x += seed
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// AccessBlock filters one trace block down to the sampled addresses and
// plays the survivors through the inner simulator's batched path. A shift
// by 64 is defined as 0 in Go, so k == 0 keeps every access.
func (s *SampledSim) AccessBlock(sites []int32, addrs []int64) {
	if cap(s.scratchAddrs) < len(addrs) {
		s.scratchSites = make([]int32, len(addrs))
		s.scratchAddrs = make([]int64, len(addrs))
	}
	seed, k := s.seed, s.k
	siteTotal := s.siteTotal
	n := 0
	for i, addr := range addrs {
		siteTotal[sites[i]]++
		if sampleHash(uint64(addr), seed)>>(64-k) == 0 {
			s.scratchSites[n] = sites[i]
			s.scratchAddrs[n] = addr
			n++
		}
	}
	s.total += int64(len(addrs))
	if n > 0 {
		s.inner.AccessBlock(s.scratchSites[:n], s.scratchAddrs[:n])
	}
}

// scaleRatio estimates a full-population count from a sampled count by the
// observed sampling ratio (population/sample), rounding to nearest.
func scaleRatio(sampled, sampleSize, population int64) int64 {
	if sampleSize <= 0 || sampled <= 0 {
		return 0
	}
	if sampleSize == population {
		return sampled
	}
	return int64(math.Round(float64(sampled) / float64(sampleSize) * float64(population)))
}

// Results returns the estimated full-trace results in the exact engine's
// shape: miss counts are sampled counts scaled by the observed access
// ratio, distinct/first-touch counts scale by the exact address-sampling
// rate 2^k, and the histogram shifts each sampled bucket up by k (a
// sampled distance d stands for d·2^k). With Log2Rate 0 the output equals
// StackSim's exactly.
func (s *SampledSim) Results() Results {
	in := s.inner.Results()
	if s.k == 0 {
		return in
	}
	out := Results{
		Accesses: s.total,
		Distinct: in.Distinct << s.k,
		Watches:  append([]int64(nil), s.watches...),
		Misses:   make([]int64, len(in.Misses)),
	}
	for i, m := range in.Misses {
		out.Misses[i] = scaleRatio(m, in.Accesses, s.total)
	}
	for b, c := range in.Hist {
		if c == 0 {
			continue
		}
		nb := b + int(s.k)
		if nb > 63 {
			nb = 63
		}
		out.Hist[nb] += c << s.k
	}
	out.PerSite = make([]SiteStats, len(in.PerSite))
	for i, ps := range in.PerSite {
		st := SiteStats{
			Accesses:   s.siteTotal[i],
			FirstTouch: ps.FirstTouch << s.k,
			Misses:     make([]int64, len(ps.Misses)),
		}
		for wi, m := range ps.Misses {
			st.Misses[wi] = scaleRatio(m, ps.Accesses, s.siteTotal[i])
		}
		out.PerSite[i] = st
	}
	return out
}

// SampleStats reports the sampling telemetry behind an estimate.
type SampleStats struct {
	Log2Rate        int
	Rate            float64 // 2^-Log2Rate
	Seed            uint64
	TotalAccesses   int64
	SampledAccesses int64
	SampledDistinct int64
}

// Stats returns the sampling telemetry accumulated so far.
func (s *SampledSim) Stats() SampleStats {
	in := s.inner.Results()
	return SampleStats{
		Log2Rate:        int(s.k),
		Rate:            1 / float64(int64(1)<<s.k),
		Seed:            s.seed,
		TotalAccesses:   s.total,
		SampledAccesses: in.Accesses,
		SampledDistinct: in.Distinct,
	}
}

// MissBound returns the Hoeffding-style half-width, in misses, around each
// per-capacity estimate at confidence 1-delta: total · sqrt(ln(2/δ)/2s)
// for s sampled accesses. With no sampled accesses the bound is the whole
// trace (no information); with Log2Rate 0 it is 0 (the result is exact).
func (s *SampledSim) MissBound(delta float64) int64 {
	if s.k == 0 {
		return 0
	}
	if delta <= 0 || delta >= 1 {
		delta = 0.05
	}
	sa := s.inner.Results().Accesses
	if sa == 0 {
		return s.total
	}
	eps := math.Sqrt(math.Log(2/delta) / (2 * float64(sa)))
	b := int64(math.Ceil(eps * float64(s.total)))
	if b > s.total {
		b = s.total
	}
	return b
}

// FlushMetrics publishes the inner simulator's counters plus the sampling
// totals ("cachesim.sampled.total" / ".kept") since the previous flush.
func (s *SampledSim) FlushMetrics(m *obs.Metrics) {
	if m == nil {
		return
	}
	s.inner.FlushMetrics(m)
	kept := s.inner.Results().Accesses
	m.Counter("cachesim.sampled.total").Add(s.total - s.flushedTotal)
	m.Counter("cachesim.sampled.kept").Add(kept - s.flushedKept)
	s.flushedTotal, s.flushedKept = s.total, kept
}
