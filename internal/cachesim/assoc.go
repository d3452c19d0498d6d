package cachesim

import "fmt"

// AssocCache is a set-associative LRU cache simulator over element-granular
// addresses. With Ways == NumSets*Ways capacity and NumSets == 1 it
// degenerates to the fully-associative cache modeled by StackSim; with
// Ways == 1 it is direct-mapped. LineElems groups consecutive element
// addresses into one cache line, modeling spatial locality that the paper's
// element-granular analysis deliberately abstracts away.
type AssocCache struct {
	numSets   int64
	ways      int
	lineElems int64
	// sets[s] holds line tags MRU-first.
	sets     [][]int64
	accesses int64
	misses   int64
}

// NewAssocCache builds a cache with the given total capacity in elements,
// associativity, and line size in elements. capacityElems must be divisible
// by ways*lineElems.
func NewAssocCache(capacityElems int64, ways int, lineElems int64) (*AssocCache, error) {
	if capacityElems <= 0 || ways <= 0 || lineElems <= 0 {
		return nil, fmt.Errorf("cachesim: invalid cache geometry (%d, %d, %d)", capacityElems, ways, lineElems)
	}
	lines := capacityElems / lineElems
	if lines*lineElems != capacityElems {
		return nil, fmt.Errorf("cachesim: capacity %d not divisible by line size %d", capacityElems, lineElems)
	}
	numSets := lines / int64(ways)
	if numSets == 0 || numSets*int64(ways) != lines {
		return nil, fmt.Errorf("cachesim: %d lines not divisible by %d ways", lines, ways)
	}
	c := &AssocCache{numSets: numSets, ways: ways, lineElems: lineElems}
	c.sets = make([][]int64, numSets)
	return c, nil
}

// AccessBlock simulates a batch of element accesses, hoisting the geometry
// fields and the counter updates out of the per-access path. Results are
// identical to simulating the accesses one at a time.
func (c *AssocCache) AccessBlock(addrs []int64) {
	lineElems, numSets, ways := c.lineElems, c.numSets, c.ways
	sets := c.sets
	var misses int64
	for _, addr := range addrs {
		line := addr / lineElems
		set := line % numSets
		s := sets[set]
		hit := false
		for i, tag := range s {
			if tag == line {
				copy(s[1:i+1], s[0:i])
				s[0] = line
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		misses++
		if len(s) < ways {
			s = append(s, 0)
		}
		copy(s[1:], s[0:len(s)-1])
		s[0] = line
		sets[set] = s
	}
	c.accesses += int64(len(addrs))
	c.misses += misses
}

// Misses returns the number of misses so far.
func (c *AssocCache) Misses() int64 { return c.misses }

// MissRatio returns misses/accesses.
func (c *AssocCache) MissRatio() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}
