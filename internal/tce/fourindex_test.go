package tce

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/trace"
)

// TestFourIndexPipeline drives the full TCE pipeline on the four-index
// transform of §2: operation minimization, lowering to an imperfectly
// nested loop program (8 statements: 4 inits + 4 accumulations over
// 5-dimensional spaces), cache analysis, and validation against the exact
// simulator at a reduced size.
func TestFourIndexPipeline(t *testing.T) {
	c, r := FourIndexTransform()
	tree, err := OpMin(c, r, expr.Env{"N": 64, "V": 32})
	if err != nil {
		t.Fatal(err)
	}
	steps := tree.Sequence()
	if len(steps) != 4 {
		t.Fatalf("%d steps", len(steps))
	}
	nest, err := GenLoopNest("four-index", steps, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nest.Stmts()); got != 8 {
		t.Fatalf("%d statements, want 8", got)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{"N": 6, "V": 4}
	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckBounds(); err != nil {
		t.Fatal(err)
	}
	watches := []int64{16, 128, 1024, 1 << 30}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.RunBlocks(0, sim.AccessBlock)
	res := sim.Results()
	total, _ := p.Length()
	for i, cap := range watches {
		predRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), cap)
		if err != nil {
			t.Fatal(err)
		}
		pred := predRep.Total
		diff := pred - res.Misses[i]
		if diff < 0 {
			diff = -diff
		}
		// The 5-deep nests have more boundary surface relative to volume
		// at this tiny size; allow a sub-dominant slice per site.
		tol := total/6 + 200
		if diff > tol {
			t.Errorf("cap %d: predicted %d vs simulated %d (tol %d)", cap, pred, res.Misses[i], tol)
		}
	}
	// Compulsory misses must be exact.
	predInfRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	predInf := predInfRep.Total
	if predInf != res.Distinct {
		t.Errorf("compulsory %d vs distinct %d", predInf, res.Distinct)
	}
}

// TestFourIndexIntermediateShapes: the optimal chain's intermediates drop
// one AO index and gain one MO index at each step.
func TestFourIndexIntermediateShapes(t *testing.T) {
	c, r := FourIndexTransform()
	tree, err := OpMin(c, r, expr.Env{"N": 64, "V": 32})
	if err != nil {
		t.Fatal(err)
	}
	steps := tree.Sequence()
	for i, st := range steps {
		if len(st.Out.Indices) != 4 {
			t.Errorf("step %d output %s is not rank-4", i, st.Out)
		}
		if len(st.SumIndices) != 1 {
			t.Errorf("step %d contracts %v, want exactly one index", i, st.SumIndices)
		}
	}
	// Final output must be the MO-basis tensor B(a,b,c,d).
	last := steps[len(steps)-1]
	if last.Out.Name != "B" {
		t.Errorf("final output %s", last.Out)
	}
}
