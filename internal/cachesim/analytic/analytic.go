// Package analytic is the closed-form simulation engine: it answers the
// same question as cachesim.StackSim — misses per watched capacity, per
// reference site, plus compulsory counts — without generating a single
// access. Following Gysi et al.'s symbolic stack-distance counting, the
// paper's component inventory (core.Analysis) already expresses every
// reference's stack distance in closed form over the structured subscript
// class (index and tile-pair subscripts), so a per-capacity evaluation of
// the compiled component programs is a complete substitute for the O(n³)
// trace walk: microseconds at any problem size.
//
// Fidelity is tiered and self-reporting. Accesses and compulsory
// (first-touch) counts are always exact. Info.Exact reports whether every
// component's span cost is exact (the structured class with no documented
// over-approximation); even then, per-capacity totals can deviate from the
// simulator at degenerate capacities of a few elements, where one-iteration
// boundary effects in a span dominate — the same regime the model-vs-
// simulator harness bounds loosely. The cross-engine differential harness
// in internal/validate calibrates and enforces both tiers against ground
// truth: exact at capacity >= the footprint, tight in the paper's regime,
// loose only below 64 elements.
package analytic

import (
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/loopir"
)

// Info reports the provenance of an analytic result.
type Info struct {
	// Exact is true when every component's stack distance is exact — the
	// structured subscript class. Totals are then simulator-exact outside
	// the degenerate few-element capacity regime (see the package doc);
	// when false, the model's accuracy envelope applies everywhere.
	Exact bool
	// Components is the number of closed-form components evaluated.
	Components int
}

// Simulate evaluates the analysis at env for every watched capacity and
// returns the results in the exact engine's shape: Misses[i] is the
// predicted miss count at watches[i], Distinct the predicted compulsory
// (first-touch) count, and PerSite follows a.Nest.Sites() order — the same
// site ids a trace.Program of the nest would use.
func Simulate(a *core.Analysis, env expr.Env, watches []int64) (cachesim.Results, Info, error) {
	f := a.SymTab().FrameOf(env)
	return SimulateFrame(a, f, watches)
}

// SimulateFrame is Simulate on a caller-owned frame (see
// core.Analysis.GetFrame); the serving layer uses it to keep the per-
// request steady state allocation-free up to the result slices.
func SimulateFrame(a *core.Analysis, f *expr.Frame, watches []int64) (cachesim.Results, Info, error) {
	// Site keys are formatted once per request; siteOf maps a component's
	// site to the last site index with its key.
	sites := a.Nest.Sites()
	keys := SiteLabels(a.Nest)
	siteIdx := make(map[string]int, len(sites))
	for i, k := range keys {
		siteIdx[k] = i
	}
	siteOf := make(map[loopir.RefSite]int, len(sites))
	for i, s := range sites {
		siteOf[s] = siteIdx[keys[i]]
	}
	res := cachesim.Results{
		Watches: append([]int64(nil), watches...),
		Misses:  make([]int64, len(watches)),
		PerSite: make([]cachesim.SiteStats, len(sites)),
	}
	for i := range res.PerSite {
		res.PerSite[i].Misses = make([]int64, len(watches))
	}
	info := Info{Exact: true, Components: len(a.Components)}
	for _, c := range a.Components {
		if !c.Exact {
			info.Exact = false
		}
	}
	for wi, cap := range watches {
		rep, err := a.PredictMissesFrame(f, cap)
		if err != nil {
			return cachesim.Results{}, info, err
		}
		res.Misses[wi] = rep.Total
		// Accesses, compulsory counts and the per-site totals are capacity-
		// independent; fill them from the first report.
		if wi == 0 {
			res.Accesses = rep.Accesses
			for _, d := range rep.Detail {
				si := siteOf[d.Component.Site]
				res.PerSite[si].Accesses += d.Count
				if d.Component.SD.Base.IsInf() {
					res.PerSite[si].FirstTouch += d.Count
					res.Distinct += d.Count
				}
			}
		}
		for si, k := range keys {
			res.PerSite[si].Misses[wi] = rep.BySite[k]
		}
	}
	if len(watches) == 0 {
		// No capacities to predict at: still report accesses/compulsory,
		// which are geometry-independent — use the plain frame path.
		rep, err := a.PredictMissesFrame(f, 1)
		if err != nil {
			return cachesim.Results{}, info, err
		}
		res.Accesses = rep.Accesses
		for _, d := range rep.Detail {
			si := siteOf[d.Component.Site]
			res.PerSite[si].Accesses += d.Count
			if d.Component.SD.Base.IsInf() {
				res.PerSite[si].FirstTouch += d.Count
				res.Distinct += d.Count
			}
		}
	}
	return res, info, nil
}

// SiteLabels returns the site keys of the nest in site-id order, the
// labels Results.JSON expects.
func SiteLabels(nest *loopir.Nest) []string {
	sites := nest.Sites()
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = s.Key()
	}
	return out
}
