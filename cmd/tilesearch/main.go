// Command tilesearch runs the paper's §6 tile-size search and regenerates
// Table 4 (best tile sizes with known and unknown loop bounds).
//
// Usage:
//
//	tilesearch -table4                      # the full Table 4 sweep
//	tilesearch -kernel twoindex -n 1024     # one known-bounds search
//	tilesearch -kernel matmul -n 512 -cache-kb 16
//	tilesearch -kernel twoindex -n 1024 -j 8 -exhaustive
//	tilesearch -kernel matmul -n 256 -cache-kb 4 -ways 1 -line 4
//	tilesearch -kernel matmul -n 256 -report run.json
//	tilesearch -table4 -debug-addr localhost:8080
//	tilesearch -joint -kernel twoindexchain -n 32 -cache-kb 2
//	tilesearch -joint -kernel matmul-naive -n 128 -cache-kb 16 -ways 8 -line 4
//
// -joint switches from the tile-only search to the joint transformation-
// plan search: structural variants of the kernel (loop permutations, legal
// fusions, auto-tiled forms) are enumerated under the dependence legality
// checks and each is scored by its own tile search; the untiled kernel
// kinds (matmul-naive, twoindexchain) are the natural inputs. -max-variants
// caps the structural enumeration.
//
// -j spreads candidate evaluation over a worker pool; results are
// byte-identical at every parallelism level. -exhaustive scores the full
// divisor grid instead of the pruned §6 search (the baseline the search is
// measured against). -ways scores candidates against a set-associative
// geometry through the conflict-aware model (with -line as the line size in
// elements), steering the search away from resonant power-of-two strides;
// omitting it keeps the fully-associative model and its exact output. -report writes a RunReport JSON artifact (analysis
// stage timings, per-phase candidate counts, evaluation-cache accounting,
// search phase spans — see README.md, Observability). -debug-addr serves
// /metrics, /debug/vars and /debug/pprof on the given address for the
// duration of the run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/tilesearch"
)

func main() {
	var (
		table4     = flag.Bool("table4", false, "regenerate Table 4")
		kernel     = flag.String("kernel", "twoindex", "kernel: matmul | twoindex")
		n          = flag.Int64("n", 256, "loop bound")
		cacheKB    = flag.Int64("cache-kb", 64, "cache size in KB of doubles")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "parallel evaluation workers (1 = sequential)")
		exhaustive = flag.Bool("exhaustive", false, "score the full divisor grid instead of the pruned search")
		ways       = flag.Int64("ways", 0, "score against a set-associative geometry with this associativity (0 = fully associative)")
		line       = flag.Int64("line", 0, "line size in elements for -ways (0 = one-element lines)")
		report     = flag.String("report", "", "write a RunReport JSON artifact to this path")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
		joint      = flag.Bool("joint", false, "run the joint permutation × fusion × tiling plan search")
		maxVar     = flag.Int("max-variants", 0, "cap on structural variants for -joint (0 = default)")
	)
	flag.Parse()
	var err error
	if *joint {
		err = runJoint(os.Stdout, *kernel, *n, *cacheKB, *jobs, *ways, *line, *maxVar)
	} else {
		err = run(os.Stdout, os.Args[1:], *table4, *kernel, *n, *cacheKB, *jobs, *exhaustive, *ways, *line, *report, *debugAddr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tilesearch:", err)
		os.Exit(1)
	}
}

// runJoint executes one -joint invocation: build the kernel, enumerate and
// score its legal transformation plans, and print the variant table with
// the winner marked.
func runJoint(w io.Writer, kernel string, n, cacheKB int64, jobs int, ways, line int64, maxVariants int) error {
	nest, env, err := experiments.BuildKernel(kernel, n, nil)
	if err != nil {
		return err
	}
	pr, err := tilesearch.SearchPlans(nest, tilesearch.PlanOptions{
		Options: tilesearch.Options{
			CacheElems:  experiments.KB(cacheKB),
			Ways:        ways,
			LineElems:   line,
			BaseEnv:     env,
			Parallelism: jobs,
		},
		Permute:     true,
		Fuse:        true,
		AutoTile:    true,
		MaxVariants: maxVariants,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "joint plan search: kernel %s, N=%d, cache %d KB%s, %d workers\n", kernel, n, cacheKB, geometry(ways, line), jobs)
	fmt.Fprintf(w, "variants scored: %d (%d skipped), %d tile candidates\n", len(pr.Variants), pr.Skipped, pr.Evaluated)
	for i, v := range pr.Variants {
		mark := ' '
		if i == pr.BestIndex {
			mark = '*'
		}
		tiles := ""
		if len(v.Result.Best.Tiles) > 0 {
			tiles = " tiles " + experiments.FormatTiles(v.Result.Best.Tiles)
		}
		fmt.Fprintf(w, "%c [%d] %-40s misses %d%s\n", mark, i, v.Plan.String(), v.Result.Best.Misses, tiles)
	}
	best, base := pr.Best(), pr.Baseline()
	fmt.Fprintf(w, "best: %s — misses %d (tile-only baseline %d)\n",
		best.Plan.String(), best.Result.Best.Misses, base.Result.Best.Misses)
	return nil
}

// run executes one tool invocation. args is recorded verbatim in the run
// report (main passes os.Args[1:]; tests pass a fixed slice so golden
// reports stay stable).
func run(w io.Writer, args []string, table4 bool, kernel string, n, cacheKB int64, jobs int,
	exhaustive bool, ways, line int64, reportPath, debugAddr string) error {
	return obs.RunTool(w, "tilesearch", args, reportPath, debugAddr, func(r *obs.ToolRun) error {
		if table4 {
			return runTable4(w, jobs, r.Metrics)
		}
		return search(w, r, kernel, n, cacheKB, jobs, exhaustive, ways, line)
	})
}

// runTable4 prints the Table 4 sweep.
func runTable4(w io.Writer, jobs int, m *obs.Metrics) error {
	res, err := experiments.RunTable4([]int64{32, 64, 128, 256, 512, 1024}, jobs, m)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 4: best tile sizes, two-index transform, 64 KB cache")
	fmt.Fprintf(w, "%-8s %-28s %-28s\n", "N", "best with known bounds", "best with unknown bounds")
	unk := experiments.FormatTiles(res.UnknownBest)
	for _, row := range res.Rows {
		fmt.Fprintf(w, "%-8d %-28s %-28s\n", row.N, experiments.FormatTiles(row.KnownBest), unk)
	}
	return nil
}

// search runs one tile search and prints its result; r carries the run's
// observability.
func search(w io.Writer, r *obs.ToolRun, kernel string, n, cacheKB int64, jobs int,
	exhaustive bool, ways, line int64) error {
	var (
		dims []tilesearch.Dim
		base expr.Env
	)
	switch kernel {
	case "twoindex":
		dims = []tilesearch.Dim{{Symbol: "TI", Max: n}, {Symbol: "TJ", Max: n},
			{Symbol: "TM", Max: n}, {Symbol: "TN", Max: n}}
		base = expr.Env{"NI": n, "NJ": n, "NM": n, "NN": n}
	case "matmul":
		dims = []tilesearch.Dim{{Symbol: "TI", Max: n}, {Symbol: "TJ", Max: n}, {Symbol: "TK", Max: n}}
		base = expr.Env{"N": n}
	default:
		return fmt.Errorf("unknown kernel %q", kernel)
	}
	a, err := experiments.AnalyzedKernel(kernel, r.Metrics)
	if err != nil {
		return err
	}
	opt := tilesearch.Options{
		Dims:        dims,
		CacheElems:  experiments.KB(cacheKB),
		Ways:        ways,
		LineElems:   line,
		BaseEnv:     base,
		DivisorOf:   n,
		Parallelism: jobs,
		Obs:         r.Metrics,
		Trace:       r.Trace,
	}
	var res *tilesearch.Result
	if exhaustive {
		opt.MinTile = 2
		res, err = tilesearch.Exhaustive(a, opt)
	} else {
		res, err = tilesearch.Search(a, opt)
	}
	if err != nil {
		return err
	}
	mode := "search"
	if exhaustive {
		mode = "exhaustive"
	}
	fmt.Fprintf(w, "kernel %s, N=%d, cache %d KB%s, %s, %d workers\n", kernel, n, cacheKB, geometry(ways, line), mode, jobs)
	fmt.Fprintf(w, "best: %s\n", res.Best)
	if len(res.Frontier) > 0 {
		fmt.Fprintf(w, "frontier candidates (coarse phase):\n")
		for _, c := range res.Frontier {
			fmt.Fprintf(w, "  %s\n", c)
		}
	}
	fmt.Fprintf(w, "model evaluations: %d candidates, %d component evaluations (cache hit rate %.1f%%)\n",
		res.Evaluated, res.Computed, 100*res.HitRate())
	r.SetExtra("kernel", kernel)
	r.SetExtra("n", n)
	r.SetExtra("cacheKB", cacheKB)
	r.SetExtra("mode", mode)
	r.SetExtra("bestTiles", res.Best.Tiles)
	r.SetExtra("bestMisses", res.Best.Misses)
	r.SetExtra("evaluated", res.Evaluated)
	return nil
}

// geometry describes a -ways geometry for a header line; the
// fully-associative default prints nothing.
func geometry(ways, line int64) string {
	if ways <= 0 {
		return ""
	}
	if line <= 0 {
		line = 1
	}
	return fmt.Sprintf(" (%d-way, %d-element lines)", ways, line)
}
