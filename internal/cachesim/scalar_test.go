package cachesim

// Per-access entry points for tests. Production drives the simulators only
// through AccessBlock; AssocCache.Access is the scalar oracle its batched
// path is pinned to, and access feeds hand-written traces to a StackSim one
// reference at a time.

// access feeds one reference through AccessBlock.
func (s *StackSim) access(site int32, addr int64) { s.AccessBlock([]int32{site}, []int64{addr}) }

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
