package experiments

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/validate"
)

// LoopOrderPoint records the model's and the simulator's miss counts for
// one loop order of the untiled matmul — an extension experiment showing
// the model ranks loop permutations correctly (the enabling property for
// using it inside a transforming compiler, the paper's motivation in §1).
type LoopOrderPoint struct {
	Order     string
	Predicted int64
	Simulated int64
}

// RunLoopOrder evaluates all six orders of the untiled i-j-k matmul at
// bound n and cache capacity cacheElems. simulate=false skips the exact
// traces.
func RunLoopOrder(n int64, cacheElems int64, simulate bool) ([]LoopOrderPoint, error) {
	base, err := kernels.Matmul()
	if err != nil {
		return nil, err
	}
	env := expr.Env{"N": n}
	orders := [][]string{
		{"i", "j", "k"}, {"i", "k", "j"}, {"j", "i", "k"},
		{"j", "k", "i"}, {"k", "i", "j"}, {"k", "j", "i"},
	}
	var out []LoopOrderPoint
	for _, ord := range orders {
		nest, err := loopir.PermutePerfect(base, ord)
		if err != nil {
			return nil, err
		}
		a, err := core.Analyze(nest)
		if err != nil {
			return nil, err
		}
		pt := LoopOrderPoint{
			Order:     fmt.Sprintf("%s-%s-%s", ord[0], ord[1], ord[2]),
			Simulated: -1,
		}
		rep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), cacheElems)
		if err != nil {
			return nil, err
		}
		pt.Predicted = rep.Total
		if simulate {
			cmps, err := validate.Run(a, env, []int64{cacheElems})
			if err != nil {
				return nil, err
			}
			pt.Simulated = cmps[0].SimulatedTotal
		}
		out = append(out, pt)
	}
	return out, nil
}

// TestLoopOrderRanking: the model's ranking of the six matmul loop orders
// must agree with exact simulation on which orders tie and which extremes
// win (permutation pairs that only swap the outer two loops of a reuse
// pattern behave identically at this scale).
func TestLoopOrderRanking(t *testing.T) {
	const n = 48
	const cache = 256
	pts, err := RunLoopOrder(n, cache, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("%d points", len(pts))
	}
	// Model tracks the simulator within 10% + boundary slack on each order.
	for _, p := range pts {
		diff := p.Predicted - p.Simulated
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.10*float64(p.Simulated)+4*n*n {
			t.Errorf("%s: predicted %d vs simulated %d", p.Order, p.Predicted, p.Simulated)
		}
	}
	// The order minimizing predicted misses must also minimize (or tie
	// within slack) the simulated misses.
	byPred := append([]LoopOrderPoint(nil), pts...)
	sort.Slice(byPred, func(i, j int) bool { return byPred[i].Predicted < byPred[j].Predicted })
	bySim := append([]LoopOrderPoint(nil), pts...)
	sort.Slice(bySim, func(i, j int) bool { return bySim[i].Simulated < bySim[j].Simulated })
	bestPred := byPred[0]
	bestSim := bySim[0].Simulated
	if float64(bestPred.Simulated) > 1.1*float64(bestSim)+float64(4*n*n) {
		t.Errorf("model's best order %s simulates to %d, true best is %d",
			bestPred.Order, bestPred.Simulated, bestSim)
	}
}

func TestLoopOrderPredictionOnly(t *testing.T) {
	pts, err := RunLoopOrder(64, 512, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Simulated != -1 {
			t.Errorf("unexpected simulation for %s", p.Order)
		}
		if p.Predicted <= 0 {
			t.Errorf("no prediction for %s", p.Order)
		}
	}
}

// BenchmarkLoopOrderRanking regenerates the loop-order extension experiment
// (predictions only).
func BenchmarkLoopOrderRanking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := RunLoopOrder(128, 1024, false)
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) != 6 {
			b.Fatal("missing orders")
		}
	}
}
