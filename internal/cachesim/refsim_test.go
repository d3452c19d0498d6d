package cachesim

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestStackSimMatchesReference drives identical random traces through
// ReferenceSim (Fenwick tree, one access at a time) and StackSim
// (hierarchical bitset, in odd-sized blocks) and requires identical Results
// — misses per unsorted watch list, histogram, per-site stats — and
// identical flushed counters. The two engines share no counting code, so
// agreement here is the strongest correctness evidence in the package.
// Uniform addresses, random sites among 1–4, blocks of 1–300.
func TestStackSimMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		space := int64(16 + rng.Intn(600))
		n := 3000 + rng.Intn(3000)
		nSites := 1 + rng.Intn(4)
		sites := make([]int32, n)
		addrs := make([]int64, n)
		for i := range addrs {
			sites[i] = int32(rng.Intn(nSites))
			addrs[i] = rng.Int63n(space)
		}
		matchReference(t, rng, space, nSites, []int64{128, 2, 16, 1024}, sites, addrs, 300)
	}
}

// TestAccessBlockMatchesScalar requires StackSim fed in blocks of 1–777 to
// agree with ReferenceSim fed one access at a time, on a hot set mixed into
// uniform addresses over spaces as small as 4, three sites round-robin,
// traces up to 20K and an unsorted watch list.
func TestAccessBlockMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		space := int64(rng.Intn(300) + 4)
		n := rng.Intn(20000) + 500
		addrs := randTrace(rng, space, n)
		sites := make([]int32, n)
		for i := range sites {
			sites[i] = int32(i % 3)
		}
		matchReference(t, rng, space, 3, []int64{64, 1, 16, 4, 256}, sites, addrs, 777)
	}
}

// matchReference plays the trace through ReferenceSim and through StackSim
// in blocks of 1..maxBlock accesses drawn from rng, and fails unless their
// results and operation counters agree.
func matchReference(t *testing.T, rng *rand.Rand, space int64, nSites int, watches []int64, sites []int32, addrs []int64, maxBlock int) {
	t.Helper()
	ref := NewReferenceSim(space, nSites, watches)
	for i := range addrs {
		ref.Access(int(sites[i]), addrs[i])
	}
	sim := NewStackSim(space, nSites, watches)
	for lo := 0; lo < len(addrs); {
		hi := min(lo+1+rng.Intn(maxBlock), len(addrs))
		sim.AccessBlock(sites[lo:hi], addrs[lo:hi])
		lo = hi
	}
	if want, got := ref.Results(), sim.Results(); !reflect.DeepEqual(want, got) {
		t.Fatalf("space %d, %d accesses: StackSim diverges from reference\nref %+v\ngot %+v",
			space, len(addrs), want, got)
	}
	if sim.ops != ref.ops || sim.compactions != ref.compactions {
		t.Fatalf("space %d, %d accesses: counters diverge: ops %d vs %d, compactions %d vs %d",
			space, len(addrs), sim.ops, ref.ops, sim.compactions, ref.compactions)
	}
}
