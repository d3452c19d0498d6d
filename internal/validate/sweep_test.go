package validate

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/cachesim/analytic"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/nestgen"
	"repro/internal/obs"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// Case is one independent nest in a differential sweep: an analysis and the
// concrete bounds to evaluate it under.
type Case struct {
	Name     string
	Analysis *core.Analysis
	Env      expr.Env
}

// SweepOptions selects the simulation engine a sweep compares the model
// against.
type SweepOptions struct {
	// Obs receives the exact engine's "cachesim.*" counter flushes and
	// "simulate.total" timings. Instruments are atomic, so cases running in
	// parallel aggregate exactly.
	Obs *obs.Metrics
	// Engine selects the simulation engine: exact (default) walks the whole
	// trace through StackSim, sampled estimates from a SHARDS-style address
	// sample, and analytic evaluates the closed-form model itself (so
	// Predicted == Simulated by construction — useful to exercise the
	// analytic plumbing under the sweep's comparison shape).
	Engine cachesim.Engine
	// BlockSize overrides the exact engine's trace block size; 0 means
	// trace.DefaultBlockSize.
	BlockSize int
	// SampleLog2Rate and SampleSeed configure the sampled engine: the
	// sampling rate is 2^-SampleLog2Rate (0 falls back to
	// cachesim.DefaultLog2Rate for the nest's address space) and seed 0
	// selects cachesim.DefaultSampleSeed.
	SampleLog2Rate int
	SampleSeed     uint64
}

// sweep runs fn on every case as parallel subtests of one group and returns
// the results in case order once every case has finished. A case error
// fails the test.
func sweep[T any](t *testing.T, cases []Case, fn func(Case) (T, error)) []T {
	t.Helper()
	out := make([]T, len(cases))
	t.Run("cases", func(t *testing.T) {
		for i, c := range cases {
			t.Run(c.Name, func(t *testing.T) {
				t.Parallel()
				var err error
				if out[i], err = fn(c); err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
			})
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return out
}

// RunSweep cross-checks every case at every watched capacity through the
// engine opt selects; out[i] holds case i's comparisons.
func RunSweep(t *testing.T, cases []Case, watches []int64, opt SweepOptions) [][]Comparison {
	t.Helper()
	return sweep(t, cases, func(c Case) ([]Comparison, error) { return runOne(c, watches, opt) })
}

// runOne simulates one case through the engine opt selects and compares
// the model against it at every watched capacity.
func runOne(c Case, watches []int64, opt SweepOptions) ([]Comparison, error) {
	var res cachesim.Results
	var err error
	switch opt.Engine {
	case cachesim.EngineAnalytic:
		// No trace at all: the closed form is the simulated side.
		res, _, err = analytic.Simulate(c.Analysis, c.Env, watches)
	case cachesim.EngineSampled:
		res, err = simulateSampled(c, watches, opt)
	default:
		if opt.BlockSize == 0 {
			res, err = Simulate(c.Analysis.Nest, c.Env, watches, opt.Obs)
			break
		}
		var p *trace.Program
		if p, err = trace.Compile(c.Analysis.Nest, c.Env); err == nil {
			sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
			p.RunBlocks(opt.BlockSize, sim.AccessBlock)
			res = sim.Results()
		}
	}
	if err != nil {
		return nil, err
	}
	return compare(c.Analysis, c.Env, watches, res)
}

func simulateSampled(c Case, watches []int64, opt SweepOptions) (cachesim.Results, error) {
	p, err := trace.Compile(c.Analysis.Nest, c.Env)
	if err != nil {
		return cachesim.Results{}, err
	}
	k := opt.SampleLog2Rate
	if k <= 0 {
		k = cachesim.DefaultLog2Rate(p.Size)
	}
	sim := cachesim.NewSampledSim(p.Size, len(p.Sites), watches, k, opt.SampleSeed)
	p.RunBlocks(0, sim.AccessBlock)
	return sim.Results(), nil
}

// sweepCorpus generates a small deterministic corpus for sweep tests.
func sweepCorpus(t *testing.T, n int) []Case {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	cases := make([]Case, 0, n)
	for i := 0; i < n; i++ {
		cfg := nestgen.Config{Imperfect: i%2 == 0, Tiled: i%3 == 0}
		nest, env := testutil.GenerateNest(t, r, i, cfg)
		a, err := core.Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, Case{Name: nest.Name, Analysis: a, Env: env})
	}
	return cases
}

// TestRunSweepDeterministic pins the sweep's determinism claim: identical
// comparisons and identical aggregated cachesim counters whether the cases
// run one after another or as parallel subtests sharing one registry.
func TestRunSweepDeterministic(t *testing.T) {
	cases := sweepCorpus(t, 9)
	watches := []int64{8, 64, 256}

	seq := obs.New()
	var want [][]Comparison
	for _, c := range cases {
		cmps, err := runOne(c, watches, SweepOptions{Obs: seq})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		want = append(want, cmps)
	}
	par := obs.New()
	if got := RunSweep(t, cases, watches, SweepOptions{Obs: par}); !reflect.DeepEqual(got, want) {
		t.Fatal("parallel comparisons diverge from the sequential ones")
	}
	if got, want := par.Counters(), seq.Counters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("obs counters diverge:\n%v\nwant\n%v", got, want)
	}
}

// TestRunObservedBatchedMatchesScalar pins RunObserved (on the batched
// pipeline) to a simulator fed one access at a time.
func TestRunObservedBatchedMatchesScalar(t *testing.T) {
	cases := sweepCorpus(t, 4)
	watches := []int64{4, 16, 128}
	for _, c := range cases {
		batched, err := RunObserved(c.Analysis, c.Env, watches, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := trace.Compile(c.Analysis.Nest, c.Env)
		if err != nil {
			t.Fatal(err)
		}
		sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
		p.RunBlocks(0, func(sites []int32, addrs []int64) {
			for i := range addrs {
				sim.AccessBlock(sites[i:i+1], addrs[i:i+1])
			}
		})
		scalar, err := compare(c.Analysis, c.Env, watches, sim.Results())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched, scalar) {
			t.Fatalf("%s: batched and scalar comparisons diverge", c.Name)
		}
	}
}

// TestRunSweepOddBlockSize runs the sweep at a deliberately tiny block size
// to force many mid-loop flushes.
func TestRunSweepOddBlockSize(t *testing.T) {
	cases := sweepCorpus(t, 3)
	watches := []int64{8, 64}
	ref := RunSweep(t, cases, watches, SweepOptions{})
	got := RunSweep(t, cases, watches, SweepOptions{BlockSize: 3})
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("block size 3 diverges from the default block size")
	}
}

// TestSweepCaseNames is a sanity check that corpus names are distinct (the
// sweep result is positional; names are for reporting only).
func TestSweepCaseNames(t *testing.T) {
	cases := sweepCorpus(t, 5)
	seen := map[string]bool{}
	for _, c := range cases {
		if c.Name == "" || strings.TrimSpace(c.Name) == "" {
			t.Fatal("empty case name")
		}
		seen[c.Name] = true
	}
	if len(seen) < 2 {
		t.Fatalf("corpus names not distinct: %v", seen)
	}
}
