package cachesim

import (
	"math/rand"
	"testing"
)

func TestFullyAssocMatchesStackSim(t *testing.T) {
	// A fully-associative LRU cache must miss exactly when sd > capacity.
	r := rand.New(rand.NewSource(21))
	const space, capacity = 64, 12
	c, err := NewAssocCache(capacity, int(capacity), 1)
	if err != nil {
		t.Fatal(err)
	}
	sim := NewStackSim(space, 1, []int64{capacity})
	var assocMisses int64
	for i := 0; i < 30000; i++ {
		addr := int64(r.Intn(space))
		if !c.Access(addr) {
			assocMisses++
		}
		sim.access(0, addr)
	}
	m, _ := sim.Results().MissesFor(capacity)
	if m != assocMisses {
		t.Fatalf("stack-distance misses %d != fully-assoc misses %d", m, assocMisses)
	}
	if c.Misses() != assocMisses {
		t.Fatalf("internal miss counter mismatch")
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	// Capacity 4, line 1, direct-mapped: addresses 0 and 4 conflict.
	c, err := NewAssocCache(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Access(0)
		c.Access(4)
	}
	if c.Misses() != 20 {
		t.Fatalf("direct-mapped ping-pong misses = %d want 20", c.Misses())
	}
	// Same trace in a 2-way cache of the same capacity: only compulsory.
	c2, err := NewAssocCache(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c2.Access(0)
		c2.Access(4)
	}
	if c2.Misses() != 2 {
		t.Fatalf("2-way misses = %d want 2", c2.Misses())
	}
}

func TestLineSizeSpatialLocality(t *testing.T) {
	// Sequential scan with 8-element lines: 1 miss per 8 accesses.
	c, err := NewAssocCache(64, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for a := int64(0); a < 800; a++ {
		c.Access(a)
	}
	if c.Misses() != 100 {
		t.Fatalf("sequential scan misses = %d want 100", c.Misses())
	}
	if got := c.MissRatio(); got != 0.125 {
		t.Fatalf("miss ratio %v want 0.125", got)
	}
}

func TestCacheGeometryErrors(t *testing.T) {
	if _, err := NewAssocCache(0, 1, 1); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewAssocCache(10, 1, 3); err == nil {
		t.Error("non-dividing line size accepted")
	}
	if _, err := NewAssocCache(8, 16, 1); err == nil {
		t.Error("more ways than lines accepted")
	}
	if _, err := NewAssocCache(2, 1, 4); err == nil {
		t.Error("capacity smaller than line accepted")
	}
}

func TestSetAssocBetweenDirectAndFull(t *testing.T) {
	// On a random trace, misses(direct) >= misses(2-way) is not a theorem
	// (Belady anomalies exist for non-LRU, and set hashing matters), but
	// fully-associative LRU must not miss more than direct-mapped on a
	// trace with heavy conflict structure: strided accesses.
	full, _ := NewAssocCache(16, int(16), 1)
	direct, _ := NewAssocCache(16, 1, 1)
	for i := 0; i < 1000; i++ {
		addr := int64((i % 8) * 16) // 8 distinct addresses, all conflict direct-mapped
		full.Access(addr)
		direct.Access(addr)
	}
	if full.Misses() != 8 {
		t.Fatalf("fully assoc misses %d want 8", full.Misses())
	}
	if direct.Misses() != 1000 {
		t.Fatalf("direct mapped misses %d want 1000", direct.Misses())
	}
}
