// Command report regenerates the repository's full experimental record as
// a single markdown document: every table and figure of the paper plus the
// extension experiments. With -simulate the exact trace simulations are
// included (several minutes at the paper's sizes); without it, the
// analytical columns are produced instantly.
//
// Usage:
//
//	report                > report.md       # predictions only, seconds
//	report -simulate      > report-full.md  # with exact simulations
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernels"
)

func main() {
	simulate := flag.Bool("simulate", false, "include exact trace simulations (slow)")
	flag.Parse()
	if err := run(os.Stdout, *simulate); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, simulate bool) error {
	fmt.Fprintln(w, "# Reproduction report")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Generated by `cmd/report`. Cache sizes count double-precision elements")
	fmt.Fprintln(w, "(64 KB = 8192). `simulated` columns are exact fully-associative LRU")
	if !simulate {
		fmt.Fprintln(w, "(omitted in this run; regenerate with `-simulate`).")
	}
	fmt.Fprintln(w)

	// Table 1.
	fmt.Fprintln(w, "## Table 1 — symbolic partition inventory (tiled matmul)")
	fmt.Fprintln(w)
	nest, err := kernels.TiledMatmul()
	if err != nil {
		return err
	}
	a, err := core.Analyze(nest)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, a.Table())
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)

	// Tables 2 and 3.
	t2, err := experiments.RunTable2(simulate)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Table 2 — tiled two-index transform")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, experiments.FormatMissRows("", t2))
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)
	t3, err := experiments.RunTable3(simulate)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Table 3 — tiled matrix multiplication")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, experiments.FormatMissRows("", t3))
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)

	// Table 4.
	fmt.Fprintln(w, "## Table 4 — tile selection, known vs unknown bounds")
	fmt.Fprintln(w)
	t4, err := experiments.RunTable4([]int64{32, 64, 128, 256, 512, 1024}, 1, nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "```")
	fmt.Fprintf(w, "%-8s %-32s %-32s\n", "N", "known bounds", "unknown bounds")
	unk := experiments.FormatTiles(t4.UnknownBest)
	for _, row := range t4.Rows {
		fmt.Fprintf(w, "%-8d %-32s %-32s\n", row.N, experiments.FormatTiles(row.KnownBest), unk)
	}
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)

	// Figures 10 and 11.
	for _, n := range []int64{1024, 2048} {
		figNo := 10
		if n == 2048 {
			figNo = 11
		}
		pts, err := experiments.RunFigure(n)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "## Figure %d — SMP time model, loop range %d\n\n", figNo, n)
		fmt.Fprintln(w, "```")
		fmt.Fprint(w, experiments.FormatFigure("", pts))
		fmt.Fprintln(w, "```")
		fmt.Fprintln(w)
	}

	// Extension: phase curve.
	fmt.Fprintln(w, "## Extension — §6 phase curve (tiled matmul, N=240, 16 KB)")
	fmt.Fprintln(w)
	curve, err := experiments.RunPhaseCurve(240, experiments.KB(16))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "```")
	fmt.Fprint(w, experiments.FormatPhaseCurve(curve))
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w)

	// Extension: LRU vs OPT.
	if simulate {
		fmt.Fprintln(w, "## Extension — LRU vs Belady's optimum (tiled matmul, N=64)")
		fmt.Fprintln(w)
		gap, err := experiments.RunOptGap("matmul", 64, []int64{8, 8, 8}, []int64{1, 4, 16})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "```")
		fmt.Fprintf(w, "%-8s %-12s %-12s %-8s\n", "cache", "LRU", "OPT", "gap")
		for _, p := range gap {
			fmt.Fprintf(w, "%-8s %-12d %-12d %6.1f%%\n",
				fmt.Sprintf("%dKB", p.CacheKB), p.LRUMisses, p.OptMisses, 100*p.Gap())
		}
		fmt.Fprintln(w, "```")
		fmt.Fprintln(w)
	}
	return nil
}
