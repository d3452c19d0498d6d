// Package validate cross-checks the analytical cache model against the
// exact trace simulator, per reference site and per cache capacity. It is
// the machinery behind the repository's accuracy claims: tests use it to
// bound the model's error, and cmd/cachechar exposes it to users who want
// to audit the model on their own nests.
package validate

import (
	"fmt"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/loopir"
	"repro/internal/obs"
	"repro/internal/trace"
)

// SiteComparison is the predicted-vs-simulated record for one reference
// site at one cache capacity.
type SiteComparison struct {
	SiteKey   string
	Accesses  int64
	Predicted int64
	Simulated int64
}

// Comparison is the full cross-check at one cache capacity.
type Comparison struct {
	CacheElems     int64
	Accesses       int64
	PredictedTotal int64
	SimulatedTotal int64
	Sites          []SiteComparison
	// PredictedCompulsory and SimulatedCompulsory compare first-touch
	// counts with the simulator's distinct-address count; these must match
	// exactly for programs in the class (every element's first access is a
	// first touch in exactly one component).
	PredictedCompulsory int64
	SimulatedCompulsory int64
}

// RelErr returns |predicted − simulated| / simulated for the totals.
func (c Comparison) RelErr() float64 {
	if c.SimulatedTotal == 0 {
		if c.PredictedTotal == 0 {
			return 0
		}
		return 1
	}
	d := c.PredictedTotal - c.SimulatedTotal
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(c.SimulatedTotal)
}

// Run analyzes nothing new: it evaluates an existing analysis under env at
// each watched capacity, simulates the exact trace once, and returns one
// Comparison per capacity.
func Run(a *core.Analysis, env expr.Env, watches []int64) ([]Comparison, error) {
	return RunObserved(a, env, watches, nil)
}

// RunObserved is Run with observability: the simulation is timed under the
// "simulate.total" timer and the simulator's operation counters are flushed
// into the registry's "cachesim.*" counters. A nil registry disables
// recording (Run is exactly RunObserved with nil).
func RunObserved(a *core.Analysis, env expr.Env, watches []int64, m *obs.Metrics) ([]Comparison, error) {
	sw := m.Timer("simulate.total").Start()
	res, err := Simulate(a.Nest, env, watches, m)
	sw.Stop()
	if err != nil {
		return nil, err
	}
	return compare(a, env, watches, res)
}

// Simulate is the exact simulation behind cachechar, smpbench, the paper's
// tables and the root package: it compiles the nest's trace under env, runs
// it in blocks through one StackSim watching every capacity, and flushes
// the simulator's counters into m's "cachesim.*" (nil disables). An address
// space above trace.DefaultBudget elements is refused before anything is
// sized from it, since the simulator allocates per address.
func Simulate(nest *loopir.Nest, env expr.Env, watches []int64, m *obs.Metrics) (cachesim.Results, error) {
	p, err := trace.Compile(nest, env)
	if err != nil {
		return cachesim.Results{}, err
	}
	if p.Size > trace.DefaultBudget {
		return cachesim.Results{}, fmt.Errorf("address space of %d elements exceeds limit %d", p.Size, int64(trace.DefaultBudget))
	}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.RunBlocks(trace.DefaultBlockSize, sim.AccessBlock)
	sim.FlushMetrics(m)
	return sim.Results(), nil
}

// compare evaluates the analysis under env at every watched capacity and
// pairs each prediction with the simulated results res, whose Misses are
// indexed like watches and whose PerSite follows the nest's site order.
func compare(a *core.Analysis, env expr.Env, watches []int64, res cachesim.Results) ([]Comparison, error) {
	// Bind the environment into one frame and reuse it across the capacity
	// sweep: the per-capacity predictions share every expression evaluation.
	f := a.SymTab().FrameOf(env)
	sites := a.Nest.Sites() // trace.Compile assigns site ids in this order
	var out []Comparison
	for wi, cap := range watches {
		rep, err := a.PredictMissesFrame(f, cap)
		if err != nil {
			return nil, err
		}
		cmp := Comparison{
			CacheElems:          cap,
			Accesses:            res.Accesses,
			PredictedTotal:      rep.Total,
			SimulatedTotal:      res.Misses[wi],
			SimulatedCompulsory: res.Distinct,
		}
		for _, d := range rep.Detail {
			if d.Component.SD.Base.IsInf() {
				cmp.PredictedCompulsory += d.Count
			}
		}
		for si, site := range sites {
			cmp.Sites = append(cmp.Sites, SiteComparison{
				SiteKey:   site.Key(),
				Accesses:  res.PerSite[si].Accesses,
				Predicted: rep.BySite[site.Key()],
				Simulated: res.PerSite[si].Misses[wi],
			})
		}
		out = append(out, cmp)
	}
	return out, nil
}

// SimulatedMisses compiles a nest's reference trace and runs the exact
// stack simulator once at a single capacity, returning the ground-truth
// miss count. It needs no analysis — which is the point: the joint-search
// differential tests use it to check transformed nests against the
// simulator directly, independent of the model that ranked them.
func SimulatedMisses(nest *loopir.Nest, env expr.Env, cacheElems int64) (int64, error) {
	res, err := Simulate(nest, env, []int64{cacheElems}, nil)
	if err != nil {
		return 0, err
	}
	return res.Misses[0], nil
}

// SimulatedMissesGeom is SimulatedMisses under an explicit set-associative
// geometry: the nest's trace driven through the AssocCache LRU simulator.
// Line-granular simulation is what makes loop-order differences observable
// (SNIPPET 2's matmul ratios are spatial-locality effects the
// element-granular stack simulator cannot see), so the joint-search checks
// use this form whenever the request models a real geometry.
func SimulatedMissesGeom(nest *loopir.Nest, env expr.Env, cacheElems, ways, lineElems int64) (int64, error) {
	if ways <= 0 {
		return SimulatedMisses(nest, env, cacheElems)
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		return 0, err
	}
	c, err := cachesim.NewAssocCache(cacheElems, int(ways), lineElems)
	if err != nil {
		return 0, err
	}
	p.RunBlocks(0, func(_ []int32, addrs []int64) { c.AccessBlock(addrs) })
	return c.Misses(), nil
}

// Format renders comparisons as an aligned report.
func Format(cmps []Comparison) string {
	var b strings.Builder
	for _, c := range cmps {
		fmt.Fprintf(&b, "cache %d elements: predicted %d vs simulated %d (rel err %.3f%%)\n",
			c.CacheElems, c.PredictedTotal, c.SimulatedTotal, 100*c.RelErr())
		for _, s := range c.Sites {
			fmt.Fprintf(&b, "  %-10s predicted %12d  simulated %12d  (of %d accesses)\n",
				s.SiteKey, s.Predicted, s.Simulated, s.Accesses)
		}
	}
	return b.String()
}

// CheckCompulsory verifies the exactness invariant on first touches.
func CheckCompulsory(cmps []Comparison) error {
	for _, c := range cmps {
		if c.PredictedCompulsory != c.SimulatedCompulsory {
			return fmt.Errorf("validate: compulsory misses %d predicted vs %d distinct addresses",
				c.PredictedCompulsory, c.SimulatedCompulsory)
		}
	}
	return nil
}
