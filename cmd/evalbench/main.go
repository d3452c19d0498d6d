// Command evalbench measures the compiled symbolic-evaluation layer and
// writes the BENCH_eval.json artifact committed at the repository root. It
// benchmarks exactly the workloads that the go-test benchmarks in
// internal/evalbench measure, through the same helpers, so the artifact
// and `make bench-eval` output cannot drift apart: raw expression
// evaluation over the tiled-matmul component expressions, tree walking an
// Env versus running compiled op-slice programs against a slot frame.
//
// Usage:
//
//	evalbench [-o BENCH_eval.json] [-benchtime 2s]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/evalbench"
)

// Measurement is one benchmarked configuration.
type Measurement struct {
	NsPerOp     int64   `json:"ns_per_op"`
	NsPerEval   float64 `json:"ns_per_eval"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
}

// Section pairs the tree-walking baseline with the compiled path.
type Section struct {
	Tree     Measurement `json:"tree"`
	Compiled Measurement `json:"compiled"`
	Speedup  float64     `json:"speedup"`
}

// Artifact is the BENCH_eval.json schema.
type Artifact struct {
	Generated string `json:"generated"`
	Host      struct {
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		GoVersion  string `json:"go_version"`
	} `json:"host"`
	Workload struct {
		Name  string `json:"name"`
		N     int64  `json:"n"`
		Exprs int    `json:"exprs_per_op"`
	} `json:"workload"`
	// ExprEval is raw per-expression evaluation.
	ExprEval Section `json:"expr_eval"`
}

func measure(f func(b *testing.B), evals int64) Measurement {
	r := testing.Benchmark(f)
	return Measurement{
		NsPerOp:     r.NsPerOp(),
		NsPerEval:   float64(r.NsPerOp()) / float64(evals),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
}

func section(tree, compiled func(b *testing.B), evals int64) Section {
	s := Section{
		Tree:     measure(tree, evals),
		Compiled: measure(compiled, evals),
	}
	if s.Compiled.NsPerOp > 0 {
		s.Speedup = float64(s.Tree.NsPerOp) / float64(s.Compiled.NsPerOp)
	}
	return s
}

func mainE() error {
	out := flag.String("o", "BENCH_eval.json", "output artifact path")
	benchtime := flag.String("benchtime", "2s", "per-measurement benchmark time (testing -benchtime syntax)")
	flag.Parse()
	testing.Init()
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return err
	}

	var a Artifact
	a.Generated = time.Now().UTC().Format(time.RFC3339)
	a.Host.GOOS = runtime.GOOS
	a.Host.GOARCH = runtime.GOARCH
	a.Host.NumCPU = runtime.NumCPU()
	a.Host.GOMAXPROCS = runtime.GOMAXPROCS(0)
	a.Host.GoVersion = runtime.Version()

	const n = 64
	w, err := evalbench.Matmul(n, []int64{8, 8, 8})
	if err != nil {
		return err
	}
	a.Workload.Name = w.Name
	a.Workload.N = n
	a.Workload.Exprs = w.NumExprs()

	// Sanity: both paths must agree before timing them.
	tv, err := w.EvalTree()
	if err != nil {
		return err
	}
	cv, err := w.EvalCompiled()
	if err != nil {
		return err
	}
	if tv != cv {
		return fmt.Errorf("tree checksum %d != compiled checksum %d", tv, cv)
	}

	fmt.Fprintln(os.Stderr, "measuring expression evaluation ...")
	var benchErr error
	a.ExprEval = section(
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.EvalTree(); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
		},
		func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.EvalCompiled(); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
		},
		int64(w.NumExprs()))
	if benchErr != nil {
		return benchErr
	}

	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	fmt.Printf("  expr eval: %.1f -> %.1f ns/eval (%.2fx, %d exprs/op)\n",
		a.ExprEval.Tree.NsPerEval, a.ExprEval.Compiled.NsPerEval, a.ExprEval.Speedup, a.Workload.Exprs)
	return nil
}

func main() {
	if err := mainE(); err != nil {
		fmt.Fprintln(os.Stderr, "evalbench:", err)
		os.Exit(1)
	}
}
