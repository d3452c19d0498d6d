package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/loopir"
)

// ComponentKind classifies the incoming reuse dependence shared by all
// reference instances of a component.
type ComponentKind int

const (
	// FirstTouch instances have no incoming dependence: infinite stack
	// distance, compulsory misses.
	FirstTouch ComponentKind = iota
	// SelfCarried instances reuse data accessed one iteration earlier of a
	// specific enclosing loop (the Carrier), all deeper non-appearing loops
	// being at their first iteration.
	SelfCarried
	// CrossStmt instances reuse data last touched by an earlier statement
	// under a common enclosing loop (the paper's imperfectly-nested case).
	CrossStmt
)

func (k ComponentKind) String() string {
	switch k {
	case FirstTouch:
		return "first-touch"
	case SelfCarried:
		return "self"
	case CrossStmt:
		return "cross"
	}
	return "invalid"
}

// Component is one partition of a reference's instances, with its symbolic
// instance count and stack distance.
type Component struct {
	Site    loopir.RefSite
	Kind    ComponentKind
	Carrier *loopir.Loop   // SelfCarried: the loop whose step carries reuse
	Source  loopir.RefSite // CrossStmt: the source reference

	// Count is the number of reference instances in this component.
	Count *expr.Expr
	// SD is the stack distance: Base + Slope·a where a ranges over
	// [0, FreeRange). Constant components have SD.Slope == nil. FirstTouch
	// components have SD.Base == expr.Inf().
	SD        LinForm
	FreeVar   string     // name of the loop index the free variable tracks
	FreeRange *expr.Expr // trip count of that loop; nil if SD constant

	// Pattern is a human-readable source→target iteration-vector sketch in
	// the style of the paper's Table 1.
	Pattern string
	// Exact is false when the span cost used a documented over-
	// approximation (non-nested overlapping boxes summed, or a quadratic
	// free-variable product linearized).
	Exact bool
	// Breakdown itemizes the stack distance by array, in the style of the
	// paper's Table 1 ("A: 2, B: Tk, C: Tk"). Empty for first touches.
	Breakdown []ArrayCost
}

func (c *Component) String() string {
	sd := c.SD.String()
	if c.SD.Base.IsInf() {
		sd = "inf"
	}
	return fmt.Sprintf("%s %s %s  count=%s  sd=%s", c.Site.Key(), c.Kind, c.Pattern, c.Count, sd)
}

// partition enumerates the components of reference site R, walking from the
// statement up the loop tree exactly as the paper's Fig. 3 algorithm does:
// at each level, reuse comes from the nearest preceding sibling subtree
// referencing the array if one exists (cross-statement, terminal); otherwise
// a non-appearing parent loop carries self-reuse and the walk continues with
// that loop pinned to its first iteration.
func (a *Analysis) partition(site loopir.RefSite) ([]*Component, error) {
	nest := a.Nest
	array := site.Ref().Array
	appears := subscriptIndices(site.Ref())
	encl := nest.Enclosing(site.Stmt)

	// countWith computes the instance count given the pinned set and an
	// optional carrier (which contributes trip-1 instead of trip).
	countWith := func(pinned map[string]bool, carrier *loopir.Loop) *expr.Expr {
		cnt := expr.One()
		for _, l := range encl {
			switch {
			case carrier != nil && l == carrier:
				cnt = expr.Mul(cnt, expr.Sub(l.Trip, expr.One()))
			case pinned[l.Index]:
				// contributes a single iteration
			default:
				cnt = expr.Mul(cnt, l.Trip)
			}
		}
		return cnt
	}

	var comps []*Component
	pinned := map[string]bool{} // non-appearing loops pinned at iteration 0
	var node loopir.Node = site.Stmt

	for {
		parent := nest.Parent(node)
		siblings := a.siblingsOf(node, parent)
		// Nearest preceding sibling whose subtree references the array.
		pIdx := -1
		self := slices.Index(siblings, node)
		for i := self - 1; i >= 0; i-- {
			if a.sc.arrayIn(siblings[i], array) {
				pIdx = i
				break
			}
		}
		if pIdx >= 0 {
			P := siblings[pIdx]
			src, ok := a.sc.lastSiteFor(P, array)
			if !ok {
				return nil, fmt.Errorf("core: internal error: no %s site in source branch", array)
			}
			comp, err := a.crossComponent(site, src, P, node, siblings[pIdx+1:self], pinned, countWith(pinned, nil))
			if err != nil {
				return nil, err
			}
			comps = append(comps, comp)
			return comps, nil
		}
		if parent == nil {
			comps = append(comps, &Component{
				Site:    site,
				Kind:    FirstTouch,
				Count:   countWith(pinned, nil),
				SD:      LFConst(expr.Inf()),
				Pattern: a.pattern(site, nil, pinned, "first"),
				Exact:   true,
			})
			return comps, nil
		}
		if !appears[parent.Index] {
			comp, err := a.selfComponent(site, node, parent, pinned, countWith(pinned, parent))
			if err != nil {
				return nil, err
			}
			comps = append(comps, comp)
			pinned[parent.Index] = true
		}
		node = parent
	}
}

// selfComponent builds the self-reuse component carried by loop `parent`
// for the target inside its child X. The span is one complete body
// iteration of the carrier; with the TailToHeadWrap option, when the most
// recent access to the array in the previous iteration belongs to a
// different branch P of the carrier's body, the tighter tail-to-head span
// is used instead: the suffix of P and every branch after it in iteration
// x, then every branch before X and the prefix of X in iteration x+1.
func (a *Analysis) selfComponent(site loopir.RefSite, X loopir.Node, parent *loopir.Loop, pinned map[string]bool, count *expr.Expr) (*Component, error) {
	comp := &Component{Site: site, Kind: SelfCarried, Carrier: parent, Count: count}
	src, P, wrap := a.wrapSource(site, X, parent)
	if !wrap {
		comp.SD, comp.Exact, comp.Breakdown = a.sc.bodySpanCost(parent)
		comp.Pattern = a.pattern(site, parent, pinned, "step")
		return comp, nil
	}
	var between []region
	for _, nd := range parent.Body[slices.Index(parent.Body, P)+1:] {
		between = append(between, region{node: nd, kind: regionFull, phase: 1})
	}
	for _, nd := range parent.Body[:slices.Index(parent.Body, X)] {
		between = append(between, region{node: nd, kind: regionFull, phase: 2})
	}
	tgt := a.sc.endpointOf(site, X, 2)
	comp.Source = src
	comp.SD, comp.Exact, comp.Breakdown = a.sc.betweenSpanCost(a.sc.endpointOf(src, P, 1), tgt, between, parent)
	comp.Pattern = a.pattern(site, parent, pinned, "step:"+src.Key())
	return comp, a.setFreeVar(comp, tgt.pi)
}

// wrapSource returns the source of the tail-to-head span of a self-reuse
// carried by parent for the target inside X, with the branch P holding it:
// the most recent access to the array in the previous iteration. wrap is
// false when the option is off or that access is in X itself, and the full
// body span applies.
func (a *Analysis) wrapSource(site loopir.RefSite, X loopir.Node, parent *loopir.Loop) (src loopir.RefSite, P loopir.Node, wrap bool) {
	if !a.sc.opts.TailToHeadWrap {
		return src, nil, false
	}
	src, ok := a.sc.lastSiteFor(parent, site.Ref().Array)
	if !ok || src.Stmt == site.Stmt {
		return src, nil, false
	}
	P = a.sc.childContaining(parent, src.Stmt)
	return src, P, P != X
}

// crossComponent builds the cross-statement component for target tgt inside
// branch X, source src inside branch P, with `between` branches executed in
// full between them.
func (a *Analysis) crossComponent(
	tgt, src loopir.RefSite,
	P, X loopir.Node,
	between []loopir.Node,
	pinned map[string]bool,
	count *expr.Expr,
) (*Component, error) {
	regs := make([]region, len(between))
	for i, nd := range between {
		regs[i] = region{node: nd, kind: regionFull}
	}
	tgtEnd := a.sc.endpointOf(tgt, X, 0)
	sd, exact, costs := a.sc.betweenSpanCost(a.sc.endpointOf(src, P, 0), tgtEnd, regs, nil)
	comp := &Component{
		Site:      tgt,
		Kind:      CrossStmt,
		Source:    src,
		Count:     count,
		SD:        sd,
		Pattern:   a.pattern(tgt, nil, pinned, "cross:"+src.Key()),
		Exact:     exact,
		Breakdown: costs,
	}
	return comp, a.setFreeVar(comp, tgtEnd.pi)
}

// setFreeVar gives a component whose stack distance is variable its free
// variable: pi, the distinguished loop of the span's target.
func (a *Analysis) setFreeVar(comp *Component, pi string) error {
	if comp.SD.IsConst() {
		return nil
	}
	if pi == "" {
		return fmt.Errorf("core: variable SD without a distinguished loop for %s", comp.Site.Key())
	}
	comp.FreeVar = pi
	comp.FreeRange = a.Nest.Loop(pi).Trip
	return nil
}

// siblingsOf returns the ordered node list containing node: the parent's
// body, or the nest root list.
func (a *Analysis) siblingsOf(node loopir.Node, parent *loopir.Loop) []loopir.Node {
	if parent == nil {
		return a.Nest.Root
	}
	return parent.Body
}

// pattern renders an iteration-vector sketch for the component in the style
// of the paper's Table 1: appearing indices as letters, the carrier as
// "x→x+1", pinned non-appearing indices as 0, free non-appearing indices
// as *.
func (a *Analysis) pattern(site loopir.RefSite, carrier *loopir.Loop, pinned map[string]bool, tag string) string {
	appears := subscriptIndices(site.Ref())
	letters := "abcdefgh"
	li := 0
	var parts []string
	for _, l := range a.Nest.Enclosing(site.Stmt) {
		switch {
		case carrier != nil && l == carrier:
			parts = append(parts, "x+1")
		case appears[l.Index]:
			if li < len(letters) {
				parts = append(parts, string(letters[li]))
				li++
			} else {
				parts = append(parts, "?")
			}
		case pinned[l.Index]:
			parts = append(parts, "0")
		default:
			parts = append(parts, "*")
		}
	}
	return "(" + strings.Join(parts, ",") + ") " + tag
}
