package cachesim

import (
	"math/rand"
	"testing"
)

// assocPropTrace builds a trace mixing random accesses with power-of-two
// strided sweeps — the access shapes where set mapping matters.
func assocPropTrace(r *rand.Rand, space int64, n int) []int64 {
	addrs := make([]int64, 0, n)
	for len(addrs) < n {
		switch r.Intn(3) {
		case 0: // random burst
			for i := 0; i < 64; i++ {
				addrs = append(addrs, r.Int63n(space))
			}
		case 1: // contiguous sweep
			base := r.Int63n(space / 2)
			for i := int64(0); i < 128 && base+i < space; i++ {
				addrs = append(addrs, base+i)
			}
		default: // resonant strided sweep
			stride := int64(8 << r.Intn(4))
			base := r.Int63n(stride)
			for i := 0; i < 64; i++ {
				a := base + int64(i)*stride
				addrs = append(addrs, a%space)
			}
		}
	}
	return addrs[:n]
}

// With ways == capacity/line there is a single set, so the simulator is the
// fully-associative LRU cache StackSim models: misses must bit-match the
// stack-distance count at the same line granularity (addresses mapped to
// lines before entering the stack).
func TestAssocFullWaysMatchesStackSimAtLineSize(t *testing.T) {
	r := rand.New(rand.NewSource(20260807))
	const space, capacity = 1 << 10, 64
	for _, line := range []int64{1, 2, 8} {
		lines := capacity / line
		c, err := NewAssocCache(capacity, int(lines), line)
		if err != nil {
			t.Fatal(err)
		}
		sim := NewStackSim(space/line+1, 1, []int64{lines})
		for _, addr := range assocPropTrace(r, space, 30000) {
			c.Access(addr)
			sim.access(0, addr/line)
		}
		m, err := sim.Results().MissesFor(lines)
		if err != nil {
			t.Fatal(err)
		}
		if m != c.Misses() {
			t.Fatalf("line %d: stack-distance misses %d != single-set assoc misses %d", line, m, c.Misses())
		}
	}
}

// The LRU inclusion property holds per set: at a fixed set count, a cache
// with more ways holds a superset of every set's contents at every step, so
// misses never increase as ways grow. (This is the correct monotonicity
// statement — see TestAssocWaysAnomalyAtFixedCapacity for why the capacity
// must scale with the ways.)
func TestAssocMissesMonotoneInWaysFixedSets(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const sets = 16
	for _, line := range []int64{1, 4} {
		trace := assocPropTrace(r, 1<<11, 20000)
		prev := int64(-1)
		for _, ways := range []int{1, 2, 4, 8, 16} {
			c, err := NewAssocCache(sets*int64(ways)*line, ways, line)
			if err != nil {
				t.Fatal(err)
			}
			c.AccessBlock(trace)
			if prev >= 0 && c.Misses() > prev {
				t.Fatalf("line %d: misses grew from %d to %d when ways doubled to %d", line, prev, c.Misses(), ways)
			}
			prev = c.Misses()
		}
	}
}

// At a FIXED capacity, growing the associativity is not monotone: a cyclic
// sweep of capacity+1 lines thrashes the fully-associative LRU cache (every
// access misses) while the direct-mapped split confines the conflict to one
// set. This pins the counterexample that forces the monotonicity guard
// above to hold the set count, not the capacity, fixed.
func TestAssocWaysAnomalyAtFixedCapacity(t *testing.T) {
	const capacity = 16
	direct, err := NewAssocCache(capacity, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewAssocCache(capacity, int(capacity), 1)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 100; rep++ {
		for a := int64(0); a <= capacity; a++ { // 17 distinct lines, cyclic
			direct.Access(a)
			full.Access(a)
		}
	}
	if full.Misses() != full.accesses {
		t.Fatalf("fully-associative LRU should thrash the cyclic sweep: %d misses of %d", full.Misses(), full.accesses)
	}
	if direct.Misses() >= full.Misses()/2 {
		t.Fatalf("direct-mapped misses %d not well below fully-associative %d", direct.Misses(), full.Misses())
	}
}

// FuzzAssocBlockVsScalar cross-checks AccessBlock against a loop of Access
// on fuzz-generated traces and geometries; the two paths must agree bit for
// bit on miss and access counts. Wired into `make check`'s fuzz smoke.
func FuzzAssocBlockVsScalar(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 16, 4, 4, 0, 0, 1, 1}, uint8(2), uint8(1), uint8(0))
	f.Add([]byte{7, 7, 7, 7, 7, 7}, uint8(0), uint8(0), uint8(2))
	f.Add([]byte{1, 2, 4, 8, 16, 32, 64, 128}, uint8(4), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, setSel, waySel, lineSel uint8) {
		// Geometry valid by construction: capacity = sets·ways·line.
		sets := int64(1) << (setSel % 6)
		ways := 1 << (waySel % 4)
		line := int64(1) << (lineSel % 3)
		scalar, err := NewAssocCache(sets*int64(ways)*line, ways, line)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := NewAssocCache(sets*int64(ways)*line, ways, line)
		if err != nil {
			t.Fatal(err)
		}
		addrs := make([]int64, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			addrs = append(addrs, int64(data[i])<<8|int64(data[i+1]))
		}
		for _, a := range addrs {
			scalar.Access(a)
		}
		// Uneven block boundaries, including empty blocks.
		for lo := 0; lo < len(addrs); {
			hi := lo + 1 + (lo*7)%13
			if hi > len(addrs) {
				hi = len(addrs)
			}
			batched.AccessBlock(addrs[lo:hi])
			lo = hi
		}
		if scalar.Misses() != batched.Misses() || scalar.accesses != batched.accesses {
			t.Fatalf("scalar %d/%d vs batched %d/%d (sets %d ways %d line %d)",
				scalar.Misses(), scalar.accesses, batched.Misses(), batched.accesses, sets, ways, line)
		}
	})
}
