// Package smp implements §7 of the paper: optimizing the parallel execution
// of the TCE's imperfectly nested loops on shared-memory multiprocessors.
//
// The loops enclosing the imperfect nests are synchronization-free parallel
// loops; partitioning one of them across P processors reduces each
// processor's work to the same sequential problem with a 1/P-scaled bound
// (Fig. 9), so tile-size optimization reduces to the sequential problem on
// the per-processor subset. Memory cost lies between two limit models:
//
//   - bus-bandwidth-limited: processors serialize on the memory bus, so the
//     memory cost is proportional to the SUM of all processors' misses;
//   - infinite-bandwidth: processors access memory independently, so the
//     memory cost is proportional to the MAX of per-processor misses.
//
// The package predicts parallel execution time under both models from the
// analytical cache model (or, optionally, from exact per-processor
// simulation) and also provides a real goroutine-parallel executor for the
// two-index transform.
package smp

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/obs"
	"repro/internal/validate"
)

// CostModel converts flop and miss counts into time. Units are arbitrary
// but consistent (think cycles); Seconds() divides by Frequency.
type CostModel struct {
	FlopCost    float64 // cost units per floating-point operation
	MissPenalty float64 // cost units per cache miss
	Frequency   float64 // cost units per second, for Seconds()
}

// DefaultCostModel approximates a 2005-era SMP node: 1 cycle per flop,
// 150 cycles per miss to shared memory, 1 GHz.
func DefaultCostModel() CostModel {
	return CostModel{FlopCost: 1, MissPenalty: 150, Frequency: 1e9}
}

// Config describes a parallel run to predict.
type Config struct {
	// Procs is the number of processors P.
	Procs int64
	// SplitSymbol is the loop-bound symbol partitioned across processors
	// (e.g. "NN" for the two-index transform: each processor owns a
	// column slice of B). It must divide evenly by Procs in the env.
	SplitSymbol string
	// CacheElems is the per-processor cache capacity in elements.
	CacheElems int64
	Model      CostModel
}

// Prediction is the outcome of an analytical SMP prediction.
type Prediction struct {
	Procs          int64
	PerProcMisses  int64
	TotalMisses    int64
	PerProcFlops   int64
	TimeInfiniteBW float64 // cost units under the infinite-bandwidth model
	TimeBusBound   float64 // cost units under the bus-limited model
}

// SecondsInfinite returns the infinite-bandwidth time in seconds.
func (p Prediction) SecondsInfinite(m CostModel) float64 { return p.TimeInfiniteBW / m.Frequency }

// SecondsBus returns the bus-limited time in seconds.
func (p Prediction) SecondsBus(m CostModel) float64 { return p.TimeBusBound / m.Frequency }

// Flops returns the symbolic total floating-point operation count of a nest
// (statement Flops × iteration counts).
func Flops(nest *loopir.Nest) *expr.Expr {
	total := expr.Zero()
	for _, s := range nest.Stmts() {
		if s.Flops == 0 {
			continue
		}
		iters := expr.Const(int64(s.Flops))
		for _, l := range nest.Enclosing(s) {
			iters = expr.Mul(iters, l.Trip)
		}
		total = expr.Add(total, iters)
	}
	return total
}

// perProcEnv scales the split bound by 1/P.
func perProcEnv(env expr.Env, cfg Config) (expr.Env, error) {
	n, ok := env[cfg.SplitSymbol]
	if !ok {
		return nil, fmt.Errorf("smp: env missing split symbol %s", cfg.SplitSymbol)
	}
	if cfg.Procs <= 0 || n%cfg.Procs != 0 {
		return nil, fmt.Errorf("smp: %d processors do not divide %s=%d", cfg.Procs, cfg.SplitSymbol, n)
	}
	out := expr.Env{}
	for k, v := range env {
		out[k] = v
	}
	out[cfg.SplitSymbol] = n / cfg.Procs
	return out, nil
}

// Predict computes the parallel time prediction from the analytical model:
// each processor executes the sequential subproblem with the split bound
// scaled by 1/P, and the two limit cost models combine the per-processor
// miss counts. Evaluation goes through a frame over the analysis symbol
// table; the Env parameter is the compatibility surface.
func Predict(a *core.Analysis, env expr.Env, cfg Config) (*Prediction, error) {
	penv, err := perProcEnv(env, cfg)
	if err != nil {
		return nil, err
	}
	f := a.SymTab().FrameOf(penv)
	return predictFrame(a, f, expr.Compile(Flops(a.Nest), a.SymTab()), cfg)
}

// Simulate is Predict with exact per-processor misses from the trace
// simulator in place of the model. The partition is symmetric — every
// processor runs the same subproblem, the split bound scaled by 1/P — so
// one simulation gives every processor's misses: the per-processor count is
// that simulation's and the bus total is P times it. m receives the
// simulator's "cachesim.*" counters; nil disables recording.
func Simulate(nest *loopir.Nest, env expr.Env, cfg Config, m *obs.Metrics) (*Prediction, error) {
	penv, err := perProcEnv(env, cfg)
	if err != nil {
		return nil, err
	}
	res, err := validate.Simulate(nest, penv, []int64{cfg.CacheElems}, m)
	if err != nil {
		return nil, err
	}
	flops, err := Flops(nest).Eval(penv)
	if err != nil {
		return nil, err
	}
	return mkPrediction(cfg, res.Misses[0], flops), nil
}

// predictFrame runs one prediction against an already-bound frame (the split
// bound already scaled by 1/P).
func predictFrame(a *core.Analysis, f *expr.Frame, flopsProg *expr.Program, cfg Config) (*Prediction, error) {
	rep, err := a.PredictMissesFrame(f, cfg.CacheElems)
	if err != nil {
		return nil, err
	}
	flops, err := flopsProg.Eval(f)
	if err != nil {
		return nil, err
	}
	return mkPrediction(cfg, rep.Total, flops), nil
}

func mkPrediction(cfg Config, perProcMisses, perProcFlops int64) *Prediction {
	m := cfg.Model
	compute := float64(perProcFlops) * m.FlopCost
	total := perProcMisses * cfg.Procs
	return &Prediction{
		Procs:          cfg.Procs,
		PerProcMisses:  perProcMisses,
		TotalMisses:    total,
		PerProcFlops:   perProcFlops,
		TimeInfiniteBW: compute + float64(perProcMisses)*m.MissPenalty,
		TimeBusBound:   compute + float64(total)*m.MissPenalty,
	}
}

// TileChoice names a tile assignment for sweeps (Figures 10 and 11).
type TileChoice struct {
	Label string
	Tiles map[string]int64
}

// SweepPoint is one (tiles, P) cell of a Figure 10/11 sweep.
type SweepPoint struct {
	Choice TileChoice
	Pred   Prediction
}

// Sweep evaluates every tile choice at every processor count, reproducing
// the structure of the paper's Figures 10 and 11. The flop expression is
// compiled once and a single frame is rebound per cell — the sweep used to
// rebuild an Env map and re-walk the expression trees for every (tiles, P)
// pair.
func Sweep(a *core.Analysis, baseEnv expr.Env, cfg Config, procs []int64, choices []TileChoice) ([]SweepPoint, error) {
	tab := a.SymTab()
	flopsProg := expr.Compile(Flops(a.Nest), tab)
	f := tab.NewFrame()
	var out []SweepPoint
	for _, ch := range choices {
		// Reset so no tile binding from the previous choice leaks into a
		// choice that does not set that dimension.
		f.Reset()
		f.Bind(baseEnv)
		for k, v := range ch.Tiles {
			f.SetName(k, v)
		}
		// The split bound comes from the choice's tiles if set there, else
		// the base environment — the same resolution the Env-merging path
		// performed.
		n, ok := ch.Tiles[cfg.SplitSymbol]
		if !ok {
			n, ok = baseEnv[cfg.SplitSymbol]
		}
		if !ok {
			return nil, fmt.Errorf("smp: env missing split symbol %s", cfg.SplitSymbol)
		}
		for _, p := range procs {
			c := cfg
			c.Procs = p
			if p <= 0 || n%p != 0 {
				return nil, fmt.Errorf("smp: %d processors do not divide %s=%d", p, cfg.SplitSymbol, n)
			}
			f.SetName(cfg.SplitSymbol, n/p)
			pred, err := predictFrame(a, f, flopsProg, c)
			if err != nil {
				return nil, err
			}
			out = append(out, SweepPoint{Choice: ch, Pred: *pred})
		}
		f.SetName(cfg.SplitSymbol, n)
	}
	return out, nil
}

// RunParallelTwoIndex executes the native tiled two-index transform with the
// n range partitioned across procs goroutines — the real shared-memory
// execution whose wall-clock time the caller can measure. Each goroutine
// owns a disjoint column slice of B, so no synchronization is needed beyond
// the final join.
func RunParallelTwoIndex(a, c1, c2, b *kernels.Matrix, ti, tj, tm, tn, procs int) error {
	nn := c2.Rows
	if procs <= 0 {
		return fmt.Errorf("smp: non-positive processor count %d", procs)
	}
	tilesPerProc := nn / tn
	if tilesPerProc%procs != 0 {
		return fmt.Errorf("smp: %d processors do not evenly divide %d n-tiles", procs, tilesPerProc)
	}
	chunk := nn / procs
	var wg sync.WaitGroup
	errs := make([]error, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			errs[p] = kernels.TwoIndexTiled(a, c1, c2, b, ti, tj, tm, tn, p*chunk, (p+1)*chunk)
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
