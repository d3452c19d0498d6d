package experiments

import (
	"reflect"
	"testing"

	"repro/internal/obs"
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

// TestTable2SimulatedSmall runs one scaled-down simulated row end to end.
func TestTable2SimulatedRowSmall(t *testing.T) {
	a, err := TwoIndexAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	rows, err := RunTable3(false)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatMissRows("Table 3", rows)
	if len(out) == 0 {
		t.Fatal("empty rendering")
	}
}

func TestRunTable4SmallBounds(t *testing.T) {
	res, err := RunTable4([]int64{64})
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
	pts, err := RunFigureSimulatedParallel(128, []int64{1, 2}, 1, nil)
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

// TestRunFigureSimulatedParallelMatches pins the sharded-pool figure to be
// identical at any pool width: at a scale where no point is skipped, the
// points and the aggregated shard counter flushes must not vary with the
// pool width. (smp's TestSimulateShardsMatchesSimulate pins the shards to
// the symmetry-shortcut simulation itself.)
func TestRunFigureSimulatedParallelMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated figure is slow")
	}
	procs := []int64{1, 2}
	want, err := RunFigureSimulatedParallel(128, procs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3*len(procs) {
		t.Fatalf("%d points, want %d", len(want), 3*len(procs))
	}
	var counters []map[string]int64
	for _, j := range []int{1, 8} {
		m := obs.New()
		got, err := RunFigureSimulatedParallel(128, procs, j, m)
		if err != nil {
			t.Fatalf("j=%d: %v", j, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("j=%d: sharded figure diverges\ngot  %+v\nwant %+v", j, got, want)
		}
		counters = append(counters, m.Counters())
	}
	if !reflect.DeepEqual(counters[0], counters[1]) {
		t.Fatalf("shard counters vary with pool width:\nj=1 %v\nj=8 %v", counters[0], counters[1])
	}
}
