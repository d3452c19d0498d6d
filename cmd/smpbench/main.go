// Command smpbench regenerates Figures 10 and 11: parallel execution time
// of the tiled two-index transform on a shared-memory multiprocessor, for
// equi-sized tiles versus the model-predicted tile, across processor counts
// {1, 2, 4, 8}.
//
// The machine model is the §7 analysis: each processor executes the
// sequential subproblem with the partitioned bound scaled by 1/P; time is
// flops·flopCost + misses·missPenalty under the infinite-bandwidth limit
// (per-processor misses) and the bus-limited limit (summed misses). With
// -run the native Go kernel is also executed with goroutines and wall-clock
// timed (meaningful only on a multi-core host).
//
// Usage:
//
//	smpbench -n 1024        # Figure 10
//	smpbench -n 2048        # Figure 11
//	smpbench -n 512 -run    # include real goroutine execution
//	smpbench -sim -sim-n 256   # exact per-processor simulation
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/smp"
)

func main() {
	var (
		n         = flag.Int64("n", 1024, "loop range (1024 = Fig. 10, 2048 = Fig. 11)")
		run       = flag.Bool("run", false, "also execute the native kernel with goroutines")
		speedup   = flag.Bool("speedup", false, "print the speedup/efficiency table for the predicted tile")
		report    = flag.String("report", "", "write a RunReport JSON artifact to this path")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		sim       = flag.Bool("sim", false, "also run the exact per-processor simulation figure")
		simN      = flag.Int64("sim-n", 256, "loop range for the -sim figure (full N is too slow to simulate)")
	)
	flag.Parse()
	err := obs.RunTool(os.Stdout, "smpbench", os.Args[1:], *report, *debugAddr, func(r *obs.ToolRun) error {
		return mainE(os.Stdout, r, *n, *run, *speedup, *sim, *simN)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "smpbench:", err)
		os.Exit(1)
	}
}

// mainE is one invocation's work; r carries its observability.
func mainE(w io.Writer, r *obs.ToolRun, n int64, run, speedup, sim bool, simN int64) error {
	m := r.Metrics
	fig := "Figure 10"
	if n == 2048 {
		fig = "Figure 11"
	} else if n != 1024 {
		fig = fmt.Sprintf("Figure 10/11 analogue at N=%d", n)
	}
	figSW := m.Timer("smpbench.figure").Start()
	pts, err := experiments.RunFigure(n)
	figSW.Stop()
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.FormatFigure(
		fmt.Sprintf("%s: two-index transform, loop range %d, 64 KB cache, model time", fig, n), pts))
	r.SetExtra("n", n)
	r.SetExtra("figure", fig)
	r.SetExtra("points", len(pts))

	if speedup {
		a, err := experiments.AnalyzedKernel("twoindex", m)
		if err != nil {
			return err
		}
		model := smp.DefaultCostModel()
		env := expr.Env{
			"NI": n, "NJ": n, "NM": n, "NN": n,
			"TI": 64, "TJ": 16, "TM": 16, "TN": 64,
		}
		var preds []*smp.Prediction
		for _, p := range []int64{1, 2, 4, 8, 16} {
			cfg := smp.Config{Procs: p, SplitSymbol: "NN", CacheElems: 8192, Model: model}
			pred, err := smp.Predict(a, env, cfg)
			if err != nil {
				return err
			}
			preds = append(preds, pred)
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, smp.FormatPredictions(
			"speedup/efficiency (infinite-bandwidth limit, predicted tile):", preds, model))
	}

	if sim {
		simSW := m.Timer("smpbench.sim_figure").Start()
		spts, err := experiments.RunFigureSimulated(simN, []int64{1, 2, 4, 8}, m)
		simSW.Stop()
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		fmt.Fprint(w, experiments.FormatFigure(
			fmt.Sprintf("exact simulation: loop range %d, 64 KB private caches", simN), spts))
		r.SetExtra("sim_n", simN)
		r.SetExtra("sim_points", len(spts))
	}

	if !run {
		return nil
	}
	fmt.Fprintln(w, "\nnative goroutine execution (wall clock):")
	a := kernels.NewMatrix(int(n), int(n))
	c1 := kernels.NewMatrix(int(n), int(n))
	c2 := kernels.NewMatrix(int(n), int(n))
	a.FillSequential(0.001)
	c1.FillSequential(0.002)
	c2.FillSequential(0.003)
	for _, procs := range []int{1, 2, 4, 8} {
		b := kernels.NewMatrix(int(n), int(n))
		start := time.Now()
		if err := smp.RunParallelTwoIndex(a, c1, c2, b, 64, 16, 16, 64, procs); err != nil {
			return err
		}
		fmt.Fprintf(w, "  P=%d tiles=(64,16,16,64): %v\n", procs, time.Since(start))
	}
	return nil
}
