package smp

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
)

func TestRunParallelMatmulCorrect(t *testing.T) {
	const n = 32
	a, b := kernels.NewMatrix(n, n), kernels.NewMatrix(n, n)
	a.FillSequential(0.3)
	b.FillSequential(0.7)
	want := kernels.NewMatrix(n, n)
	if err := kernels.MatmulNaive(a, b, want); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		c := kernels.NewMatrix(n, n)
		if err := RunParallelMatmul(a, b, c, 8, 8, 8, procs); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if d := kernels.MaxAbsDiff(want, c); d > 1e-9 {
			t.Errorf("procs=%d deviates by %g", procs, d)
		}
	}
	c := kernels.NewMatrix(n, n)
	if err := RunParallelMatmul(a, b, c, 8, 8, 8, 3); err == nil {
		t.Error("3 procs should not divide 4 row tiles")
	}
	if err := RunParallelMatmul(a, b, c, 8, 8, 8, 0); err == nil {
		t.Error("0 procs accepted")
	}
}

// TestMatmulRowPartitionPrediction: §7's claim for Fig. 9 — each
// processor's subproblem is the sequential problem with NI scaled by 1/P,
// touching a row slice of A and C and all of B.
func TestMatmulRowPartitionPrediction(t *testing.T) {
	nest, err := tiledMatmulDims()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env, err := matmulDimsEnv(64, 64, 64, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SplitSymbol: "NI", CacheElems: 512, Model: DefaultCostModel()}
	var prev *Prediction
	for _, p := range []int64{1, 2, 4} {
		cfg.Procs = p
		pred, err := Predict(a, env, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Flops scale exactly 1/P.
		if pred.PerProcFlops*p != 2*64*64*64 {
			t.Errorf("P=%d per-proc flops %d", p, pred.PerProcFlops)
		}
		// Per-processor compulsory floor: slice of A and C plus all of B.
		if prev != nil && pred.PerProcMisses >= prev.PerProcMisses {
			t.Errorf("P=%d per-proc misses %d not below P=%d's %d",
				p, pred.PerProcMisses, prev.Procs, prev.PerProcMisses)
		}
		prev = pred
	}
	// Simulation agrees with the model at P=2.
	cfg.Procs = 2
	pm, err := Predict(a, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Simulate(nest, env, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	d := pm.PerProcMisses - ps.PerProcMisses
	if d < 0 {
		d = -d
	}
	if d > ps.PerProcMisses/5+3*64*64 {
		t.Errorf("predicted %d vs simulated %d per-proc misses", pm.PerProcMisses, ps.PerProcMisses)
	}
}

// RunParallelMatmul executes the native tiled matrix multiplication with
// the i range (rows of C and A) partitioned across procs goroutines — the
// one-dimensional partitioning of the paper's Figs. 8 and 9. Each goroutine
// writes a disjoint row block of C, so no synchronization is needed beyond
// the final join.
func RunParallelMatmul(a, b, c *kernels.Matrix, ti, tj, tk, procs int) error {
	if procs <= 0 {
		return fmt.Errorf("smp: non-positive processor count %d", procs)
	}
	rows := a.Rows
	if rows%(ti*procs) != 0 {
		return fmt.Errorf("smp: %d processors do not evenly divide %d row tiles", procs, rows/ti)
	}
	chunk := rows / procs
	var wg sync.WaitGroup
	errs := make([]error, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			lo := p * chunk
			aSlice := &kernels.Matrix{Rows: chunk, Cols: a.Cols, Data: a.Data[lo*a.Cols : (lo+chunk)*a.Cols]}
			cSlice := &kernels.Matrix{Rows: chunk, Cols: c.Cols, Data: c.Data[lo*c.Cols : (lo+chunk)*c.Cols]}
			errs[p] = kernels.MatmulTiled(aSlice, b, cSlice, ti, tj, tk)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tiledMatmulDims returns the tiled matmul with independent bounds NI, NJ,
// NK per index — the form §7 partitions across processors (Figs. 8 and 9:
// the I loop is split, giving each processor a row block of C and A and all
// of B).
func tiledMatmulDims() (*loopir.Nest, error) {
	ni, nj, nk := expr.Var("NI"), expr.Var("NJ"), expr.Var("NK")
	spec := loopir.PerfectNestSpec{
		Name: "matmul-dims",
		Arrays: []*loopir.Array{
			{Name: "A", Dims: []*expr.Expr{ni, nj}},
			{Name: "B", Dims: []*expr.Expr{nj, nk}},
			{Name: "C", Dims: []*expr.Expr{ni, nk}},
		},
		Indices: []string{"i", "j", "k"},
		Trips:   []*expr.Expr{ni, nj, nk},
		Stmt: &loopir.Stmt{
			Label: "S1",
			Flops: 2,
			Refs: []loopir.Ref{
				{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("j")}},
				{Array: "B", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("j"), loopir.Idx("k")}},
				{Array: "C", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("k")}},
			},
		},
	}
	return loopir.TilePerfect(spec, []loopir.TileSpec{
		loopir.DefaultTileSpec("i", ni),
		loopir.DefaultTileSpec("j", nj),
		loopir.DefaultTileSpec("k", nk),
	})
}

// matmulDimsEnv binds the per-dimension matmul symbols.
func matmulDimsEnv(ni, nj, nk, ti, tj, tk int64) (expr.Env, error) {
	for _, p := range [][2]int64{{ni, ti}, {nj, tj}, {nk, tk}} {
		if p[1] <= 0 || p[0]%p[1] != 0 {
			return nil, fmt.Errorf("tile %d does not divide bound %d", p[1], p[0])
		}
	}
	return expr.Env{"NI": ni, "NJ": nj, "NK": nk, "TI": ti, "TJ": tj, "TK": tk}, nil
}
