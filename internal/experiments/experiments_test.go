package experiments

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/kernels"
	"repro/internal/trace"
)

func TestKB(t *testing.T) {
	if KB(64) != 8192 {
		t.Fatalf("KB(64) = %d", KB(64))
	}
	if KB(256) != 32768 {
		t.Fatalf("KB(256) = %d", KB(256))
	}
}

// TestTable3PredictionsMatchPaper asserts the headline reproduction result:
// our from-scratch model reproduces the paper's predicted miss counts
// exactly on every Table 3 row.
func TestTable3PredictionsMatchPaper(t *testing.T) {
	rows, err := RunTable3(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Predicted != r.PaperPred {
			t.Errorf("%s %s %s: predicted %d, paper predicted %d",
				r.Label, r.Bounds, r.Tiles, r.Predicted, r.PaperPred)
		}
	}
}

// TestTable2PredictionsNearPaper: three of the six rows match the paper's
// predictions exactly; the others differ by a single boundary component and
// must stay within 7% of the paper's simulated counts.
func TestTable2PredictionsNearPaper(t *testing.T) {
	rows, err := RunTable2(false)
	if err != nil {
		t.Fatal(err)
	}
	exact := 0
	for _, r := range rows {
		if r.Predicted == r.PaperPred {
			exact++
		}
		diff := r.Predicted - r.PaperSim
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.07*float64(r.PaperSim) {
			t.Errorf("%s %s %s: predicted %d vs paper sim %d (>7%%)",
				r.Label, r.Bounds, r.Tiles, r.Predicted, r.PaperSim)
		}
	}
	if exact < 3 {
		t.Errorf("only %d/6 Table 2 rows match the paper's predictions exactly", exact)
	}
}

// TestTable2SimulatedRowSmall runs one scaled-down Table 2 row through
// missRow with simulation on, and checks its simulated column against a
// count taken here: the row's trace compiled and fed to a StackSim in
// blocks of an odd size.
func TestTable2SimulatedRowSmall(t *testing.T) {
	a, err := AnalyzedKernel("twoindex", nil)
	if err != nil {
		t.Fatal(err)
	}
	env, err := kernels.TwoIndexEnvDims(32, 32, 32, 32, 16, 8, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	const cache = 512
	row, err := missRow(a, env, cache, true)
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.Compile(a.Nest, env)
	if err != nil {
		t.Fatal(err)
	}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), []int64{cache})
	p.RunBlocks(777, sim.AccessBlock)
	want := sim.Results().Misses[0]
	if want <= 0 || row.Simulated != want {
		t.Fatalf("simulated %d, want %d", row.Simulated, want)
	}
	if row.Predicted <= 0 {
		t.Fatalf("predicted %d", row.Predicted)
	}
}

func TestRunTable4SmallBounds(t *testing.T) {
	res, err := RunTable4([]int64{64}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].N != 64 {
		t.Fatalf("rows %+v", res.Rows)
	}
	if len(res.UnknownBest) != 4 {
		t.Fatalf("unknown best %v", res.UnknownBest)
	}
	// With N=64 and a 64KB cache everything fits: tiles should allow the
	// full bound (misses dominated by compulsory).
	if res.Rows[0].KnownMisses <= 0 {
		t.Fatalf("known misses %d", res.Rows[0].KnownMisses)
	}
}

// TestFigureShape asserts the headline claim of Figures 10/11: the
// model-predicted tile (64,16,16,128) beats every equi-sized tiling at every
// processor count, and time decreases with P.
func TestFigureShape(t *testing.T) {
	pts, err := RunFigure(1024)
	if err != nil {
		t.Fatal(err)
	}
	best := map[int64]float64{}
	pred := map[int64]float64{}
	for _, p := range pts {
		if p.Label == "predicted-64x16x16x64" {
			pred[p.Procs] = p.SecondsInf
			continue
		}
		if p.Label == "paper-64x16x16x128" {
			continue
		}
		if v, ok := best[p.Procs]; !ok || p.SecondsInf < v {
			best[p.Procs] = p.SecondsInf
		}
	}
	for _, procs := range []int64{1, 2, 4, 8} {
		if pred[procs] > best[procs] {
			t.Errorf("P=%d: predicted tile %.3fs worse than best equi %.3fs",
				procs, pred[procs], best[procs])
		}
	}
	// Scaling: P=8 must be faster than P=1 for the predicted tile.
	if !(pred[8] < pred[1]) {
		t.Errorf("no speedup: P=1 %.3fs, P=8 %.3fs", pred[1], pred[8])
	}
	if FormatFigure("Fig 10", pts) == "" {
		t.Fatal("empty figure rendering")
	}
}

// TestFigureOrderingSurvivesExactSimulation: at a reduced scale, the exact
// simulator must agree with the model that the predicted tile beats the
// equi-sized tiles at every processor count — the figure's headline
// ordering is a property of the program, not of the model.
func TestFigureOrderingSurvivesExactSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated figure is slow")
	}
	pts, err := RunFigureSimulated(128, []int64{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	best := map[int64]float64{}
	pred := map[int64]float64{}
	for _, p := range pts {
		if p.Label == "predicted-64x16x16x64" {
			pred[p.Procs] = p.SecondsInf
			continue
		}
		if v, ok := best[p.Procs]; !ok || p.SecondsInf < v {
			best[p.Procs] = p.SecondsInf
		}
	}
	for _, procs := range []int64{1, 2} {
		if pred[procs] > best[procs] {
			t.Errorf("P=%d: predicted tile %.4fs worse than best equi %.4fs (simulated)",
				procs, pred[procs], best[procs])
		}
	}
}
