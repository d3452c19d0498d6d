package cachesim

// The per-access entry points of the simulators that production drives only
// through AccessBlock: the scalar oracles the batched paths are pinned to.

// Access simulates one element access; it returns true on hit.
func (c *AssocCache) Access(addr int64) bool {
	c.accesses++
	line := addr / c.lineElems
	set := line % c.numSets
	s := c.sets[set]
	for i, tag := range s {
		if tag == line {
			copy(s[1:i+1], s[0:i])
			s[0] = line
			return true
		}
	}
	c.misses++
	if len(s) < c.ways {
		s = append(s, 0)
	}
	copy(s[1:], s[0:len(s)-1])
	s[0] = line
	c.sets[set] = s
	return false
}

// Access classifies one reference.
func (h *Hierarchy) Access(addr int64) { h.sim.Access(0, addr) }

// Access processes one reference (the scalar path; AccessBlock is the hot
// one). Unsampled accesses only bump the totals.
func (s *SampledSim) Access(site int, addr int64) {
	s.total++
	s.siteTotal[site]++
	if sampleHash(uint64(addr), s.seed)>>(64-s.k) == 0 {
		s.inner.Access(site, addr)
	}
}
