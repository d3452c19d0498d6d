package core

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/expr"
	"repro/internal/trace"
)

// TestPredictHierarchyAgainstSimulator: two single-level predictions, one at
// each capacity, classify every access of a two-level hierarchy — L1 hits
// are the L1 report's hits, L2 hits the misses L2 recovers, and memory
// accesses the L2 misses — and must match cachesim.Hierarchy.
func TestPredictHierarchyAgainstSimulator(t *testing.T) {
	nest := matmulNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	const N = 20
	env := expr.Env{"N": N}
	const capL1, capL2 = 43, 461 // the matmul SD regime boundaries

	f := a.SymTab().FrameOf(env)
	l1, err := a.PredictMissesFrame(f, capL1)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := a.PredictMissesFrame(f, capL2)
	if err != nil {
		t.Fatal(err)
	}
	l1Hits, l2Hits, mem := l1.Accesses-l1.Total, l1.Total-l2.Total, l2.Total

	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	h, err := cachesim.NewHierarchy(p.Size, capL1, capL2)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(func(_ int, addr int64) { h.Access(addr) })

	if l1.Accesses != h.Accesses() {
		t.Fatalf("accesses %d vs %d", l1.Accesses, h.Accesses())
	}
	tol := int64(3 * N * N)
	check := func(name string, got, want int64) {
		d := got - want
		if d < 0 {
			d = -d
		}
		if d > tol+want/20 {
			t.Errorf("%s: predicted %d vs simulated %d", name, got, want)
		}
	}
	check("L1 hits", l1Hits, h.L1Hits)
	check("L2 hits", l2Hits, h.L2Hits)
	check("memory", mem, h.MemAccesses)

	// Conservation.
	if l1Hits+l2Hits+mem != l1.Accesses {
		t.Error("the two levels do not conserve accesses")
	}
}
