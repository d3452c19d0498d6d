package validate

import (
	"fmt"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/trace"
)

// Cross-engine differential harness: run the three simulation engines —
// exact (StackSim ground truth), analytic (closed-form model) and sampled
// (SHARDS-style estimate) — over the same generated corpus the
// model-vs-simulator harness uses, and enforce each engine's fidelity
// contract against the exact baseline.
//
// Tier calibration (measured over this corpus, fixed seed):
//   - accesses and compulsory counts: exact for every engine, every nest;
//   - analytic at a capacity covering the footprint: exact (misses are the
//     compulsory count on both sides);
//   - analytic on perfect nests at >= 256 elements: exact — the structured
//     class away from the boundary regime;
//   - analytic elsewhere: the model envelope, tiered by capacity like the
//     model-vs-simulator harness but with a wider sub-64 tier — this
//     harness samples capacity 16, deeper into the boundary regime than
//     that harness's 8/32 points (max observed there: 0.875) — and the
//     same aggregate mean bound;
//   - sampled: inside its own reported Hoeffding envelope on >= 95% of
//     (nest, capacity) comparisons, and bit-identical to exact at rate 1.
const (
	engHugeCap      = 1 << 20 // covers every corpus nest's footprint
	engExactFloor   = 256     // perfect nests must match exactly at >= this
	engSampledLog2  = 2       // forced 1/4 sampling rate (corpus spaces are small)
	engSampledCover = 0.95    // required CI hit rate
	engEnvelopeTiny = 0.90    // capacities below 64 elements (see above)
)

func engEnvelopeFor(capacity int64) float64 {
	if capacity < 64 {
		return engEnvelopeTiny
	}
	return envelopeFor(capacity)
}

// engWatches returns the harness capacities: the model-vs-simulator tiers
// plus a footprint-covering capacity where exactness is unconditional.
func engWatches() []int64 { return []int64{16, 64, 256, 4096, engHugeCap} }

// perfectShape reports whether corpus index i is one of the two perfect
// (non-imperfect, non-tiled) generator classes — see diffCorpus.
func perfectShape(i int) bool { return i%4 == 0 || i%4 == 1 }

func TestCrossEngineDifferential(t *testing.T) {
	total := diffNests
	if testing.Short() {
		total = 12
	}
	cases, nests := diffCorpus(t, total)
	watches := engWatches()

	exact := RunSweep(t, cases, watches, SweepOptions{})
	analytic := RunSweep(t, cases, watches, SweepOptions{Engine: cachesim.EngineAnalytic})

	var sumRel float64
	checked := 0
	for i := range cases {
		nest := nests[i]
		for wi, cap := range watches {
			e, a := exact[i][wi], analytic[i][wi]
			if a.Accesses != e.Accesses {
				t.Errorf("%s", describe(i, nest, fmt.Sprintf(
					"analytic accesses %d vs exact %d", a.Accesses, e.Accesses)))
			}
			if a.SimulatedCompulsory != e.SimulatedCompulsory {
				t.Errorf("%s", describe(i, nest, fmt.Sprintf(
					"analytic compulsory %d vs exact %d", a.SimulatedCompulsory, e.SimulatedCompulsory)))
			}
			// Through the analytic engine the simulated side IS the model.
			if a.PredictedTotal != a.SimulatedTotal {
				t.Errorf("%s", describe(i, nest, fmt.Sprintf(
					"analytic engine disagrees with the model it evaluates: %d vs %d at capacity %d",
					a.SimulatedTotal, a.PredictedTotal, cap)))
			}
			am, em := a.SimulatedTotal, e.SimulatedTotal
			exactTier := cap >= engHugeCap || (perfectShape(i) && cap >= engExactFloor)
			if exactTier {
				if am != em {
					t.Errorf("%s", describe(i, nest, fmt.Sprintf(
						"exact tier violated at capacity %d: analytic %d vs exact %d", cap, am, em)))
				}
				continue
			}
			if em < 20 {
				continue // relative error on a handful of misses is meaningless
			}
			checked++
			d := float64(am - em)
			if d < 0 {
				d = -d
			}
			rel := d / float64(em)
			sumRel += rel
			if env := engEnvelopeFor(cap); rel > env {
				t.Errorf("%s", describe(i, nest, fmt.Sprintf(
					"capacity %d: analytic %d vs exact %d (rel err %.3f > envelope %.2f)",
					cap, am, em, rel, env)))
			}
		}
	}
	if checked == 0 {
		t.Fatal("no envelope-tier comparison had enough misses — corpus or capacities misconfigured")
	}
	if mean := sumRel / float64(checked); mean > diffMeanEnvelope {
		t.Errorf("analytic mean rel err %.4f over %d comparisons exceeds %.2f", mean, checked, diffMeanEnvelope)
	}

	// Sampled engine: drive each case's SampledSim directly so its reported
	// bound is visible, and require the exact count inside the envelope on
	// >= 95% of comparisons (fixed seed — the rate is deterministic).
	comparisons, covered := 0, 0
	for i, c := range cases {
		p, err := trace.Compile(c.Analysis.Nest, c.Env)
		if err != nil {
			t.Fatalf("%s", describe(i, nests[i], "trace compile failed: "+err.Error()))
		}
		sim := cachesim.NewSampledSim(p.Size, len(p.Sites), watches, engSampledLog2, 0)
		p.RunBlocks(0, sim.AccessBlock)
		sr := sim.Results()
		bound := sim.MissBound(0.05)
		if sr.Accesses != exact[i][0].Accesses {
			t.Errorf("%s", describe(i, nests[i], fmt.Sprintf(
				"sampled access total %d vs exact %d (totals are counted, not estimated)",
				sr.Accesses, exact[i][0].Accesses)))
		}
		for wi := range watches {
			comparisons++
			diff := sr.Misses[wi] - exact[i][wi].SimulatedTotal
			if diff < 0 {
				diff = -diff
			}
			if diff <= bound {
				covered++
			}
		}
	}
	rate := float64(covered) / float64(comparisons)
	if rate < engSampledCover {
		t.Errorf("sampled engine covered %d/%d comparisons (%.3f < %.2f required)",
			covered, comparisons, rate, engSampledCover)
	}
	t.Logf("cross-engine harness: %d nests; analytic mean rel err %.4f over %d envelope comparisons; sampled CI coverage %.3f",
		total, sumRel/float64(checked), checked, rate)
}

// TestSampledEngineRateOneMatchesExact: through the sweep plumbing, the
// sampled engine at rate 1 must reproduce the exact engine bit for bit.
func TestSampledEngineRateOneMatchesExact(t *testing.T) {
	cases, nests := diffCorpus(t, 8)
	watches := []int64{8, 128, 2048}
	exact := RunSweep(t, cases, watches, SweepOptions{})
	// SampleLog2Rate 0 means "auto"; the corpus address spaces are far under
	// DefaultLog2Rate's 64K budget, so auto resolves to rate 1 (log2 rate 0)
	// for every nest and the engine degenerates to exact.
	sampled := RunSweep(t, cases, watches, SweepOptions{Engine: cachesim.EngineSampled})
	for i := range cases {
		for wi := range watches {
			e, s := exact[i][wi], sampled[i][wi]
			if e.SimulatedTotal != s.SimulatedTotal || e.SimulatedCompulsory != s.SimulatedCompulsory {
				t.Errorf("%s", describe(i, nests[i], fmt.Sprintf(
					"auto-rate sampled diverged from exact at capacity %d: %d/%d vs %d/%d",
					watches[wi], s.SimulatedTotal, s.SimulatedCompulsory,
					e.SimulatedTotal, e.SimulatedCompulsory)))
			}
		}
	}
}

// TestSampledEngineDeterministic: the sampled engine is a pure function of
// (trace, rate, seed) — a sequential and a parallel forced-rate sweep
// agree.
func TestSampledEngineDeterministic(t *testing.T) {
	cases, _ := diffCorpus(t, 8)
	watches := []int64{16, 512}
	opt := SweepOptions{Engine: cachesim.EngineSampled, SampleLog2Rate: 2}
	var first [][]Comparison
	for _, c := range cases {
		cmps, err := runOne(c, watches, opt)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, cmps)
	}
	second := RunSweep(t, cases, watches, opt)
	for i := range first {
		for wi := range first[i] {
			if first[i][wi].SimulatedTotal != second[i][wi].SimulatedTotal {
				t.Fatalf("case %d capacity %d: %d vs %d across runs",
					i, watches[wi], first[i][wi].SimulatedTotal, second[i][wi].SimulatedTotal)
			}
		}
	}
}
