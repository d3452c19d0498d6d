package experiments

import (
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/expr"

	"repro/internal/trace"
)

// PhaseJumps returns the indices where the miss count increases from one
// tile size to the next — the phase transitions.
func PhaseJumps(pts []PhasePoint) []int {
	var jumps []int
	for i := 1; i < len(pts); i++ {
		if pts[i].Misses > pts[i-1].Misses {
			jumps = append(jumps, i)
		}
	}
	return jumps
}

// TestPhaseCurveStructure verifies the §6 claims about the miss count as a
// function of tile size: the curve has at least one upward jump (a stack
// distance crossing the cache), and between jumps the misses are
// non-increasing.
func TestPhaseCurveStructure(t *testing.T) {
	const n, cache = 240, 2048
	pts, err := RunPhaseCurve(n, cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 8 {
		t.Fatalf("only %d points", len(pts))
	}
	jumps := PhaseJumps(pts)
	if len(jumps) == 0 {
		t.Fatalf("no phase transitions found:\n%s", FormatPhaseCurve(pts))
	}
	// Monotone non-increasing within phases.
	jumpSet := map[int]bool{}
	for _, j := range jumps {
		jumpSet[j] = true
	}
	for i := 1; i < len(pts); i++ {
		if jumpSet[i] {
			continue
		}
		if pts[i].Misses > pts[i-1].Misses {
			t.Errorf("non-monotone within a phase at tile %d", pts[i].Tile)
		}
	}
	out := FormatPhaseCurve(pts)
	if !strings.Contains(out, "phase transition") {
		t.Fatalf("missing transition marker:\n%s", out)
	}
}

// TestPhaseCurveMatchesSimulation: the jump positions predicted by the
// model must appear in the exact simulation as well (same direction of
// change between consecutive divisor tile sizes), at a reduced size.
func TestPhaseCurveMatchesSimulation(t *testing.T) {
	const n, cache = 48, 256
	a, err := AnalyzedKernel("matmul", nil)
	if err != nil {
		t.Fatal(err)
	}
	nest := a.Nest
	type pt struct {
		tile      int64
		pred, sim int64
	}
	var pts []pt
	for _, tile := range []int64{2, 4, 8, 16, 24, 48} {
		env := expr.Env{"N": n, "TI": tile, "TJ": tile, "TK": tile}
		predRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), cache)
		if err != nil {
			t.Fatal(err)
		}
		pred := predRep.Total
		p, err := trace.Compile(nest, env)
		if err != nil {
			t.Fatal(err)
		}
		sim := cachesim.NewStackSim(p.Size, len(p.Sites), []int64{cache})
		p.RunBlocks(0, sim.AccessBlock)
		m, _ := sim.Results().MissesFor(cache)
		pts = append(pts, pt{tile, pred, m})
	}
	for i := 1; i < len(pts); i++ {
		predUp := pts[i].pred > pts[i-1].pred
		simUp := pts[i].sim > pts[i-1].sim
		if predUp != simUp {
			t.Errorf("tile %d→%d: model says %v, simulation says %v (pred %d→%d, sim %d→%d)",
				pts[i-1].tile, pts[i].tile, predUp, simUp,
				pts[i-1].pred, pts[i].pred, pts[i-1].sim, pts[i].sim)
		}
	}
}
