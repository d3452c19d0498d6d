package core

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/loopir"
)

// The paper's model is element-granular (its experiments use
// one-element lines). This file extends it with a first-order spatial
// locality model for caches with multi-element lines:
//
//   - a component's stack distance in LINES divides each array's span
//     footprint by the line size when that array is swept densely (its
//     last dimension has a stride-1 subscript term — row-major adjacency);
//   - a reference site enjoys a spatial rescue factor of L when its
//     innermost appearing loop strides the referenced array's last
//     dimension by 1: consecutive iterations touch the same line, so only
//     one access per line can miss.
//
// The model is approximate by design (edge lines, partial sweeps, and
// alignment are ignored); tests bound its error against the exact
// line-granular simulator.

// LineMissReport extends MissReport with the line-model classification.
type LineMissReport struct {
	CacheElems int64
	LineElems  int64
	Accesses   int64
	Total      int64
	BySite     map[string]int64
}

// PredictLineMisses evaluates the spatial model: capacity cacheElems and
// lines of lineElems elements (lineElems must divide cacheElems).
func (a *Analysis) PredictLineMisses(env expr.Env, cacheElems, lineElems int64) (*LineMissReport, error) {
	if lineElems <= 0 || cacheElems%lineElems != 0 {
		return nil, fmt.Errorf("core: line size %d must divide capacity %d", lineElems, cacheElems)
	}
	if err := a.Nest.ValidateEnv(env); err != nil {
		return nil, err
	}
	cacheLines := cacheElems / lineElems
	dense := a.denseArrays()

	rep := &LineMissReport{CacheElems: cacheElems, LineElems: lineElems, BySite: map[string]int64{}}
	for _, c := range a.Components {
		count, err := c.Count.Eval(env)
		if err != nil {
			return nil, err
		}
		if count < 0 {
			count = 0
		}
		rep.Accesses += count

		// Spatial rescue: only the first access per line can miss.
		rescue := int64(1)
		if a.siteStridesLastDim(c.Site) {
			rescue = lineElems
		}

		var missAccesses int64
		if c.SD.Base.IsInf() {
			missAccesses = count
		} else {
			sdLines, err := a.lineSD(c, env, lineElems, dense)
			if err != nil {
				return nil, err
			}
			if sdLines > cacheLines {
				missAccesses = count
			}
		}
		m := missAccesses / rescue
		if missAccesses > 0 && m == 0 {
			m = 1
		}
		rep.Total += m
		rep.BySite[c.Site.Key()] += m
	}
	return rep, nil
}

// denseArrays reports, per array, whether every reference's last dimension
// has a stride-1 term (so a span sweeping it covers whole lines).
func (a *Analysis) denseArrays() map[string]bool {
	out := map[string]bool{}
	for name := range a.Nest.Arrays {
		out[name] = true
	}
	for _, s := range a.Nest.Stmts() {
		for _, r := range s.Refs {
			if len(r.Subs) == 0 {
				continue
			}
			last := r.Subs[len(r.Subs)-1]
			hasUnit := false
			for _, t := range last.Terms {
				if t.Stride == nil {
					hasUnit = true
				}
			}
			if !hasUnit && len(last.Terms) > 0 {
				out[r.Array] = false
			}
		}
	}
	return out
}

// siteStridesLastDim reports whether the site's innermost appearing loop
// indexes the referenced array's last dimension with stride 1.
func (a *Analysis) siteStridesLastDim(site loopir.RefSite) bool {
	ref := site.Ref()
	if len(ref.Subs) == 0 {
		return false
	}
	last := ref.Subs[len(ref.Subs)-1]
	// Find the innermost enclosing loop whose index appears anywhere in
	// the reference.
	appears := subscriptIndices(ref)
	encl := a.Nest.Enclosing(site.Stmt)
	for i := len(encl) - 1; i >= 0; i-- {
		if appears[encl[i].Index] {
			for _, t := range last.Terms {
				if t.Index == encl[i].Index && t.Stride == nil {
					return true
				}
			}
			return false
		}
	}
	return false
}

// lineSD converts a component's stack distance into lines via its per-array
// breakdown; arrays without a breakdown entry fall back to SD/L.
func (a *Analysis) lineSD(c *Component, env expr.Env, lineElems int64, dense map[string]bool) (int64, error) {
	// Evaluate at the free-variable midpoint for variable components.
	at := int64(0)
	if !c.SD.IsConst() && c.FreeRange != nil {
		rng, err := c.FreeRange.Eval(env)
		if err != nil {
			return 0, err
		}
		at = rng / 2
	}
	if len(c.Breakdown) == 0 {
		sd, err := c.SD.Eval(env, at)
		if err != nil {
			return 0, err
		}
		return (sd + lineElems - 1) / lineElems, nil
	}
	var total int64
	for _, bc := range c.Breakdown {
		size, err := bc.Size.Eval(env, at)
		if err != nil {
			return 0, err
		}
		if size < 0 {
			size = 0
		}
		if dense[bc.Array] {
			total += (size + lineElems - 1) / lineElems
		} else {
			total += size
		}
	}
	return total, nil
}
