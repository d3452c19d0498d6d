package core

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/expr"
	"repro/internal/trace"
)

// simulateLineMisses plays the exact trace through a fully-associative LRU
// cache with multi-element lines.
func simulateLineMisses(t *testing.T, a *Analysis, env expr.Env, capacity, line int64) (int64, int64) {
	t.Helper()
	p, err := trace.Compile(a.Nest, env)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cachesim.NewAssocCache(capacity, int(capacity/line), line)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(func(_ int, addr int64) { c.Access(addr) })
	return c.Misses(), c.Accesses()
}

func TestPredictLineMissesMatmul(t *testing.T) {
	nest := matmulNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	const N = 24
	env := expr.Env{"N": N}
	for _, tc := range []struct{ capacity, line int64 }{
		{64, 4},
		{256, 8},
		{2048, 8},
	} {
		rep, err := a.PredictLineMisses(env, tc.capacity, tc.line)
		if err != nil {
			t.Fatal(err)
		}
		sim, accesses := simulateLineMisses(t, a, env, tc.capacity, tc.line)
		if rep.Accesses != accesses {
			t.Fatalf("accesses %d vs %d", rep.Accesses, accesses)
		}
		d := rep.Total - sim
		if d < 0 {
			d = -d
		}
		// First-order spatial model: allow 30% relative + boundary slack.
		tol := sim*3/10 + int64(4*N*N)
		if d > tol {
			t.Errorf("cap=%d line=%d: predicted %d vs simulated %d (tol %d)",
				tc.capacity, tc.line, rep.Total, sim, tol)
		}
	}
}

func TestPredictLineMissesDegeneratesToElementModel(t *testing.T) {
	nest := matmulNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{"N": 16}
	const capacity = 128
	lineRep, err := a.PredictLineMisses(env, capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	elemTotal := predictTotal(t, a, env, capacity)
	if lineRep.Total != elemTotal {
		t.Fatalf("line model at L=1 gives %d, element model %d", lineRep.Total, elemTotal)
	}
}

func TestPredictLineMissesValidation(t *testing.T) {
	nest := matmulNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.PredictLineMisses(expr.Env{"N": 8}, 100, 3); err == nil {
		t.Error("non-dividing line accepted")
	}
	if _, err := a.PredictLineMisses(expr.Env{"N": 8}, 100, 0); err == nil {
		t.Error("zero line accepted")
	}
}

// TestSpatialRescueDirection: with growing line size the predicted misses
// of the dense matmul must not increase (spatial locality only helps here).
func TestSpatialRescueDirection(t *testing.T) {
	nest := matmulNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{"N": 32}
	var prev int64 = 1 << 62
	for _, line := range []int64{1, 2, 4, 8} {
		rep, err := a.PredictLineMisses(env, 512, line)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Total > prev {
			t.Errorf("line %d: misses %d exceed smaller-line %d", line, rep.Total, prev)
		}
		prev = rep.Total
	}
}
