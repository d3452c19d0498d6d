package validate

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/cachesim/analytic"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/loopir"
	"repro/internal/nestgen"
	"repro/internal/testutil"
	"repro/internal/trace"
)

// Edge-case behavior across all three engines, table-driven: the contract is
// that degenerate inputs either produce consistent results or consistent
// errors — never an engine-dependent mix of the two.

// TestEnginesZeroTrip: a loop whose trip evaluates to zero is outside the
// model's class (validation requires positive trips), and every engine must
// reject it with the same validation error — not silently return zeros.
func TestEnginesZeroTrip(t *testing.T) {
	nest, err := loopir.Parse(`
nest zerotrip
array A[N]
array B[N]
for i = N - 1 {
  S1: A[i] += B[i]
}
`)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{"N": 1} // trip N-1 evaluates to 0
	for _, eng := range cachesim.Engines() {
		_, err := runOne(Case{Name: "zerotrip", Analysis: a, Env: env}, []int64{16}, SweepOptions{Engine: eng})
		if err == nil {
			t.Errorf("engine %s accepted a zero-trip nest", eng)
			continue
		}
		if !strings.Contains(err.Error(), "trip") {
			t.Errorf("engine %s rejected with %q, want a trip-validation error", eng, err)
		}
	}
}

// TestEnginesDegenerateCapacities: capacities 0 and 1 at the engine level
// (the service layer rejects non-positive watches, the engines support
// them). At capacity 0 every access misses; at capacity 1 only immediate
// repeats hit — and the probe class is exact there, so all engines agree
// to the element.
func TestEnginesDegenerateCapacities(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	env := expr.Env{"N": 16, "TI": 8, "TJ": 8, "TK": 8}
	watches := []int64{0, 1}

	p, err := trace.Compile(a.Nest, env)
	if err != nil {
		t.Fatal(err)
	}
	exact := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.RunBlocks(0, exact.AccessBlock)
	er := exact.Results()
	if er.Misses[0] != er.Accesses {
		t.Fatalf("capacity 0: %d misses of %d accesses, want all", er.Misses[0], er.Accesses)
	}
	// Matmul's innermost body rotates through three arrays, so no access
	// repeats its immediate predecessor and capacity 1 hits nothing either;
	// the engines must still agree on that to the element.
	if er.Misses[1] > er.Misses[0] || er.Misses[1] < er.Distinct {
		t.Fatalf("capacity 1 misses %d outside [%d distinct, %d all]", er.Misses[1], er.Distinct, er.Misses[0])
	}

	ar, _, err := analytic.Simulate(a, env, watches)
	if err != nil {
		t.Fatal(err)
	}
	// The sampled engine's capacity resolution is 2^k elements, so only the
	// auto rate (which resolves to exact for this address space) can answer
	// at capacities 0 and 1.
	sampled := cachesim.NewSampledSim(p.Size, len(p.Sites), watches, cachesim.DefaultLog2Rate(p.Size), 0)
	p.RunBlocks(0, sampled.AccessBlock)
	sr := sampled.Results()
	for wi, w := range watches {
		if ar.Misses[wi] != er.Misses[wi] {
			t.Errorf("capacity %d: analytic %d vs exact %d", w, ar.Misses[wi], er.Misses[wi])
		}
		if sr.Misses[wi] != er.Misses[wi] {
			t.Errorf("capacity %d: sampled %d vs exact %d", w, sr.Misses[wi], er.Misses[wi])
		}
	}
}

// TestEnginesTripOneTiles: tiles equal to the problem size make every tile
// loop a single iteration, which zeroes the (trip-1)-counted components —
// the regression case for the zero-count evaluation guard (degenerate span
// expressions must not error, they must contribute zero).
func TestEnginesTripOneTiles(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	env := expr.Env{"N": 8, "TI": 8, "TJ": 8, "TK": 8}
	watches := []int64{1, 1 << 20}

	p, err := trace.Compile(a.Nest, env)
	if err != nil {
		t.Fatal(err)
	}
	exact := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.RunBlocks(0, exact.AccessBlock)
	er := exact.Results()

	ar, _, err := analytic.Simulate(a, env, watches)
	if err != nil {
		t.Fatalf("analytic engine errored on trip-1 tile loops: %v", err)
	}
	if ar.Accesses != er.Accesses || ar.Distinct != er.Distinct {
		t.Errorf("totals: analytic %d/%d vs exact %d/%d", ar.Accesses, ar.Distinct, er.Accesses, er.Distinct)
	}
	for wi, w := range watches {
		if ar.Misses[wi] != er.Misses[wi] {
			t.Errorf("capacity %d: analytic %d vs exact %d", w, ar.Misses[wi], er.Misses[wi])
		}
	}
}

// TestEnginesSingleArray: nests touching a single array across all engines
// — compulsory counts exact everywhere, and at a footprint-covering
// capacity all engines coincide exactly.
func TestEnginesSingleArray(t *testing.T) {
	r := rand.New(rand.NewSource(diffSeed))
	watches := []int64{8, 1 << 20}
	for i := 0; i < 6; i++ {
		nest, env := testutil.GenerateNest(t, r, i, nestgen.Config{MaxArrays: 1})
		a, err := core.Analyze(nest)
		if err != nil {
			t.Fatalf("%s", describe(i, nest, "analysis failed: "+err.Error()))
		}
		byEngine := map[cachesim.Engine][]Comparison{}
		for _, eng := range cachesim.Engines() {
			out, err := runOne(Case{Name: nest.Name, Analysis: a, Env: env}, watches, SweepOptions{Engine: eng})
			if err != nil {
				t.Fatalf("%s", describe(i, nest, fmt.Sprintf("engine %s failed: %v", eng, err)))
			}
			byEngine[eng] = out
		}
		e := byEngine[cachesim.EngineExact]
		for _, eng := range []cachesim.Engine{cachesim.EngineAnalytic, cachesim.EngineSampled} {
			o := byEngine[eng]
			for wi, w := range watches {
				if o[wi].SimulatedCompulsory != e[wi].SimulatedCompulsory {
					t.Errorf("%s", describe(i, nest, fmt.Sprintf(
						"engine %s compulsory %d vs exact %d", eng, o[wi].SimulatedCompulsory, e[wi].SimulatedCompulsory)))
				}
				if w >= 1<<20 && o[wi].SimulatedTotal != e[wi].SimulatedTotal {
					t.Errorf("%s", describe(i, nest, fmt.Sprintf(
						"engine %s at footprint capacity: %d vs exact %d", eng, o[wi].SimulatedTotal, e[wi].SimulatedTotal)))
				}
			}
		}
	}
}

// TestEnginesCapacitiesCrossed: the miss curve over watched capacities
// given out of order (so each engine must index its counts by watch, not
// by capacity rank) agrees across the engines, and the small capacities
// cross below the footprint capacity's count.
func TestEnginesCapacitiesCrossed(t *testing.T) {
	a := testutil.AnalyzedMatmul(t)
	env := expr.Env{"N": 24, "TI": 8, "TJ": 8, "TK": 8}
	watches := []int64{1 << 20, 1, 64}

	p, err := trace.Compile(a.Nest, env)
	if err != nil {
		t.Fatal(err)
	}
	exact := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.RunBlocks(0, exact.AccessBlock)
	sampled := cachesim.NewSampledSim(p.Size, len(p.Sites), watches, 0, 0)
	p.RunBlocks(0, sampled.AccessBlock)
	ar, _, err := analytic.Simulate(a, env, watches)
	if err != nil {
		t.Fatal(err)
	}

	want := exact.Results().Misses
	if want[1] <= want[0] || want[2] <= want[0] {
		t.Fatalf("expected the small capacities to miss more than the footprint capacity: %v", want)
	}
	if got := sampled.Results().Misses; !reflect.DeepEqual(got, want) {
		t.Errorf("sampled misses %v, exact %v", got, want)
	}
	if got := ar.Misses; !reflect.DeepEqual(got, want) {
		t.Errorf("analytic misses %v, exact %v", got, want)
	}
}
