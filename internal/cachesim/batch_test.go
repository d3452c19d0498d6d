package cachesim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randTrace draws n accesses over the given address space with a skewed
// reuse pattern (mixing hot and cold addresses) so all stack-distance
// regimes appear.
func randTrace(r *rand.Rand, space int64, n int) []int64 {
	addrs := make([]int64, n)
	for i := range addrs {
		if r.Intn(3) == 0 {
			addrs[i] = int64(r.Intn(8)) % space // hot set
		} else {
			addrs[i] = int64(r.Int63n(space))
		}
	}
	return addrs
}

// TestAccessBlockOnSD checks the per-access hook still fires in order from
// the batched path.
func TestAccessBlockOnSD(t *testing.T) {
	s := NewStackSim(16, 1, nil)
	var sds []int64
	s.OnSD = func(_ int, sd int64) { sds = append(sds, sd) }
	s.AccessBlock([]int32{0, 0, 0, 0}, []int64{3, 5, 3, 5})
	want := []int64{InfSD, InfSD, 2, 2}
	if !reflect.DeepEqual(sds, want) {
		t.Fatalf("OnSD saw %v want %v", sds, want)
	}
}

// TestAccessBlockCompaction drives the batched path through many timeline
// compactions and cross-checks against the naive stack.
func TestAccessBlockCompaction(t *testing.T) {
	const space = 8
	r := rand.New(rand.NewSource(13))
	sim := NewStackSim(space, 1, nil)
	naive := &NaiveStack{}
	var got []int64
	sim.OnSD = func(_ int, sd int64) { got = append(got, sd) }
	sites := make([]int32, 64)
	addrs := make([]int64, 64)
	for round := 0; round < 1500; round++ {
		for i := range addrs {
			addrs[i] = int64(r.Intn(space))
		}
		got = got[:0]
		sim.AccessBlock(sites, addrs)
		for i, a := range addrs {
			if want := naive.Access(a); got[i] != want {
				t.Fatalf("round %d access %d: sd %d naive %d", round, i, got[i], want)
			}
		}
	}
	if sim.compactions == 0 {
		t.Fatal("trace never compacted; test is not exercising the compaction path")
	}
}

// missesAtLeast returns a lower bound on misses for capacity c derived from
// the histogram alone (exact when c+1 is a power of two).
func missesAtLeast(r Results, c int64) int64 {
	total := r.Distinct
	for b := 63; b >= 1; b-- {
		if int64(1)<<uint(b-1) > c { // whole bucket has sd > c
			total += r.Hist[b]
		}
	}
	return total
}

// capacitiesCrossed returns the watched capacities, in ascending order,
// whose miss counts differ from the largest watched capacity's — the
// capacities at which growing the cache still changes the outcome.
func capacitiesCrossed(r Results) []int64 {
	if len(r.Watches) == 0 {
		return nil
	}
	order := make([]int, len(r.Watches))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return r.Watches[order[i]] < r.Watches[order[j]] })
	largest := r.Misses[order[len(order)-1]]
	var out []int64
	for _, idx := range order {
		if r.Misses[idx] != largest {
			out = append(out, r.Watches[idx])
		}
	}
	return out
}

// TestCapacitiesCrossed covers the documented behavior: the capacities
// whose miss counts differ from the largest watched capacity's, ascending.
func TestCapacitiesCrossed(t *testing.T) {
	// Trace: a b c a b c — at capacity >= 3 only the 3 compulsory misses;
	// below 3 every access misses.
	s := NewStackSim(8, 1, []int64{4, 1, 3, 2}) // unsorted watches
	for _, a := range []int64{0, 1, 2, 0, 1, 2} {
		s.access(0, a)
	}
	res := s.Results()
	got := capacitiesCrossed(res)
	want := []int64{1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CapacitiesCrossed = %v want %v (misses %v for watches %v)",
			got, want, res.Misses, res.Watches)
	}

	// Flat curve: all watches large enough -> nothing crossed.
	s2 := NewStackSim(8, 1, []int64{3, 5})
	for _, a := range []int64{0, 1, 2, 0, 1, 2} {
		s2.access(0, a)
	}
	if got := capacitiesCrossed(s2.Results()); len(got) != 0 {
		t.Fatalf("flat curve crossed %v, want none", got)
	}

	// No watches -> nil.
	if got := capacitiesCrossed(Results{}); got != nil {
		t.Fatalf("empty watches crossed %v", got)
	}
}

// TestMissesAtLeastProperty is the property test for the histogram lower
// bound: for random traces and any capacity c, MissesAtLeast(c) never
// exceeds the exact miss count, and equals it exactly when c+1 is a power
// of two (the histogram's bucket boundaries).
func TestMissesAtLeastProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	// Mix of bucket-aligned capacities (c+1 a power of two) and interior ones.
	capacities := []int64{0, 1, 3, 5, 7, 12, 15, 31, 40, 63, 100, 127, 200, 255}
	for trial := 0; trial < 12; trial++ {
		space := int64(r.Intn(400) + 8)
		n := r.Intn(30000) + 1000
		sim := NewStackSim(space, 1, capacities)
		zero := make([]int32, 512)
		addrs := randTrace(r, space, n)
		for lo := 0; lo < n; lo += 512 {
			hi := lo + 512
			if hi > n {
				hi = n
			}
			sim.AccessBlock(zero[:hi-lo], addrs[lo:hi])
		}
		res := sim.Results()
		for _, c := range capacities {
			exact, err := res.MissesFor(c)
			if err != nil {
				t.Fatal(err)
			}
			lower := missesAtLeast(res, c)
			if lower > exact {
				t.Fatalf("trial %d: MissesAtLeast(%d) = %d exceeds exact %d", trial, c, lower, exact)
			}
			if (c+1)&c == 0 && lower != exact { // c+1 is a power of two
				t.Fatalf("trial %d: MissesAtLeast(%d) = %d not exact (%d) at bucket boundary",
					trial, c, lower, exact)
			}
		}
	}
}

// TestAssocAccessBlockMatchesScalar pins AssocCache.AccessBlock to Access.
func TestAssocAccessBlockMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, geom := range []struct {
		capElems int64
		ways     int
		line     int64
	}{{64, 4, 2}, {32, 1, 4}, {16, 16, 1}} {
		a, err := NewAssocCache(geom.capElems, geom.ways, geom.line)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewAssocCache(geom.capElems, geom.ways, geom.line)
		if err != nil {
			t.Fatal(err)
		}
		addrs := randTrace(r, 512, 20000)
		for _, x := range addrs {
			a.Access(x)
		}
		for lo := 0; lo < len(addrs); lo += 333 {
			hi := lo + 333
			if hi > len(addrs) {
				hi = len(addrs)
			}
			b.AccessBlock(addrs[lo:hi])
		}
		if a.Misses() != b.Misses() || a.accesses != b.accesses {
			t.Fatalf("geometry %+v: scalar %d/%d vs batched %d/%d",
				geom, a.Misses(), a.accesses, b.Misses(), b.accesses)
		}
	}
}
