package cachesim

import (
	"math/rand"
	"testing"
)

func lruMisses(addrs []int64, capacity int64, space int64) int64 {
	sim := NewStackSim(space, 1, []int64{capacity})
	for _, a := range addrs {
		sim.access(0, a)
	}
	m, _ := sim.Results().MissesFor(capacity)
	return m
}

func TestOptKnownExample(t *testing.T) {
	// Classic: capacity 3, trace 0 1 2 3 0 1 4 0 1 2 3 4 (Belady example
	// family). OPT keeps 0 and 1 on the first eviction.
	addrs := []int64{0, 1, 2, 3, 0, 1, 4, 0, 1, 2, 3, 4}
	opt, err := OptMisses(addrs, 3)
	if err != nil {
		t.Fatal(err)
	}
	lru := lruMisses(addrs, 3, 8)
	if opt > lru {
		t.Fatalf("OPT %d worse than LRU %d", opt, lru)
	}
	// Belady on this trace: misses 0,1,2 (compulsory), 3 (evict 2),
	// 4 (evict 3), then 2 and 3 miss (evicting the never-reused 0 and 1)
	// while the final 4 hits — 7 total.
	if opt != 7 {
		t.Fatalf("OPT = %d, want 7", opt)
	}
}

func TestOptNeverWorseThanLRU(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		space := int64(8 + r.Intn(40))
		n := 500 + r.Intn(4000)
		addrs := make([]int64, n)
		for i := range addrs {
			addrs[i] = int64(r.Intn(int(space)))
		}
		for _, cap := range []int64{2, 5, 11, 23} {
			opt, err := OptMisses(addrs, cap)
			if err != nil {
				t.Fatal(err)
			}
			lru := lruMisses(addrs, cap, space)
			if opt > lru {
				t.Fatalf("trial %d cap %d: OPT %d > LRU %d", trial, cap, opt, lru)
			}
			// Compulsory floor.
			distinct := map[int64]bool{}
			for _, a := range addrs {
				distinct[a] = true
			}
			if opt < int64(len(distinct)) {
				t.Fatalf("OPT %d below distinct %d", opt, len(distinct))
			}
		}
	}
}

func TestOptSequentialScan(t *testing.T) {
	// A non-repeating scan: every access misses under any policy.
	addrs := make([]int64, 100)
	for i := range addrs {
		addrs[i] = int64(i)
	}
	opt, err := OptMisses(addrs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if opt != 100 {
		t.Fatalf("OPT %d want 100", opt)
	}
	if _, err := OptMisses(addrs, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}
