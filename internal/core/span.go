package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/loopir"
	"repro/internal/obs"
)

// A reuse span is the set of iterations executed between the source and the
// target of a reuse. Its cost — the component's stack distance — is the
// number of distinct array elements accessed within it, summed over all
// arrays (§4 of the paper: "the cost of an array with respect to a reuse
// [is] the number of distinct memory locations of that array accessed from
// the source iteration vector to the target iteration vector").
//
// Spans are represented as a list of regions. A region is a subtree of the
// loop tree together with a geometry describing which of its loops run
// fully, which are pinned to a single iteration, and which run partially up
// to (or from) the free position variable a:
//
//   - a full region covers every iteration of its subtree;
//   - a prefix region covers the iterations up to the target instance
//     (pinned loops at their first iteration, the distinguished loop π
//     covering a+1 values);
//   - a suffix region covers the iterations from the source instance to the
//     end (pinned loops at their last iteration, π covering trip−a values).
//
// Self-reuse carried by loop L uses a single full region (L's body) with L
// itself as the "carrier": subscript dimensions that mention L take values
// from two adjacent iterations of L, contributing one extra distinct value
// (or exactly 2 values when no deeper term shares the dimension). This is
// the paper's "cost of one complete iteration of the m loop" with the
// boundary-crossing correction visible in Table 1.
//
// Every other span runs between two references in different branches of a
// common parent (Fig. 5): the suffix of the source branch, the branches in
// between in full, and the prefix of the target branch. Cross-statement
// reuse and the tail-to-head wrap of a self-reuse both cost it through
// betweenSpanCost; they differ only in which carrier iteration each side
// sits in.

type roleKind int

const (
	roleFull roleKind = iota
	rolePinned
	rolePi
)

type region struct {
	node  loopir.Node
	kind  regionKind
	roles map[string]roleKind // loops inside node; absent = roleFull
	// phase distinguishes the two carrier iterations a wrap span crosses:
	// 0 = not a wrap region, 1 = previous iteration (tail), 2 = current
	// iteration (head). Subscript terms naming the carrier are fixed at
	// the phase's iteration, so same-shaped boxes from different phases
	// denote different elements.
	phase int
}

type regionKind int

const (
	regionFull regionKind = iota
	regionPrefix
	regionSuffix
)

// box is the set of elements of one array touched by one reference within
// one region: a product of per-dimension value sets.
type box struct {
	array string
	size  LinForm
	sig   string       // dedupe signature
	dims  []dimProfile // for containment checks
}

type dimProfile struct {
	// entries maps loop index -> effective role in this dimension.
	// roleFull dominates rolePi dominates rolePinned for containment.
	entries map[string]roleKind
	size    LinForm
}

// spanCoster computes box sets; it is owned by an Analysis.
type spanCoster struct {
	nest *loopir.Nest
	opts Options
	// spanTimer accumulates time spent in the two span-costing entry
	// points, bodySpanCost and betweenSpanCost (nil when Options.Obs is nil
	// — timing then costs one nil test per call).
	spanTimer *obs.Timer
	// subtree caches
	loopsIn map[loopir.Node]map[string]bool
	refsIn  map[loopir.Node][]loopir.RefSite
}

func newSpanCoster(nest *loopir.Nest, opts Options) *spanCoster {
	sc := &spanCoster{
		nest:      nest,
		opts:      opts,
		spanTimer: opts.Obs.Timer("analyze.span"),
		loopsIn:   map[loopir.Node]map[string]bool{},
		refsIn:    map[loopir.Node][]loopir.RefSite{},
	}
	var walk func(nd loopir.Node) (map[string]bool, []loopir.RefSite)
	walk = func(nd loopir.Node) (map[string]bool, []loopir.RefSite) {
		loops := map[string]bool{}
		var refs []loopir.RefSite
		switch v := nd.(type) {
		case *loopir.Loop:
			loops[v.Index] = true
			for _, c := range v.Body {
				cl, cr := walk(c)
				for k := range cl {
					loops[k] = true
				}
				refs = append(refs, cr...)
			}
		case *loopir.Stmt:
			for i := range v.Refs {
				refs = append(refs, loopir.RefSite{Stmt: v, RefIdx: i})
			}
		}
		sc.loopsIn[nd] = loops
		sc.refsIn[nd] = refs
		return loops, refs
	}
	for _, nd := range nest.Root {
		walk(nd)
	}
	return sc
}

// arraysIn reports whether the subtree references the array.
func (sc *spanCoster) arrayIn(nd loopir.Node, array string) bool {
	for _, r := range sc.refsIn[nd] {
		if r.Ref().Array == array {
			return true
		}
	}
	return false
}

// lastSiteFor returns the last (program-order) reference to array within the
// subtree.
func (sc *spanCoster) lastSiteFor(nd loopir.Node, array string) (loopir.RefSite, bool) {
	refs := sc.refsIn[nd]
	for i := len(refs) - 1; i >= 0; i-- {
		if refs[i].Ref().Array == array {
			return refs[i], true
		}
	}
	return loopir.RefSite{}, false
}

func (sc *spanCoster) trip(index string) *expr.Expr {
	return sc.nest.Loop(index).Trip
}

// refBox computes the element set touched by reference site q within the
// given region. carrier, when non-nil, is the loop whose single step the
// span crosses (self-reuse spans): the span consists of the tail of the
// carrier's body at iteration x plus the head at iteration x+1.
//
// Carrier geometry (derived in DESIGN.md §3 and validated against the exact
// simulator): let w1 be the outermost loop inside the carrier that encloses
// q, and S the set of inside loops appearing in q.
//
//   - q has no subscript term naming the carrier: the two half-bodies'
//     projections onto S jointly cover the full sweep → size = Π_S trips.
//   - q names the carrier and the carrier is innermost (no inside loops):
//     the span touches q exactly once → no adjustment.
//   - q names the carrier and w1 ∈ S: the sweep splits complementarily
//     along w1 across the two carrier values (staircase) → size = Π_S
//     trips + Π_{S∖w1} trips.
//   - q names the carrier and w1 ∉ S: both half-bodies project onto the
//     full sweep, in two different carrier positions → size = 2·Π_S trips.
func (sc *spanCoster) refBox(q loopir.RefSite, reg region, carrier *loopir.Loop) (box, bool) {
	inside := sc.loopsIn[reg.node]
	ref := q.Ref()
	b := box{array: ref.Array, size: LFConst(expr.One())}
	exact := true
	carrierHere := false
	// rest accumulates the box size excluding the w1 factor.
	rest := LFConst(expr.One())
	w1 := ""
	if carrier != nil {
		encl := sc.nest.Enclosing(q.Stmt)
		for i, l := range encl {
			if l == carrier && i+1 < len(encl) {
				w1 = encl[i+1].Index
				break
			}
		}
	}
	w1InS := false
	var sigParts []string
	for _, sub := range ref.Subs {
		dp := dimProfile{entries: map[string]roleKind{}, size: LFConst(expr.One())}
		var dimSig []string
		for _, t := range sub.Terms {
			if carrier != nil && t.Index == carrier.Index {
				if reg.phase != 0 {
					// Wrap region: the carrier is pinned to this phase's
					// iteration; the phase tag keeps boxes from the two
					// iterations distinct.
					dimSig = append(dimSig, fmt.Sprintf("%s:carrier@%d", t.Index, reg.phase))
				} else {
					carrierHere = true
					dimSig = append(dimSig, t.Index+":carrier")
				}
				continue
			}
			if !inside[t.Index] {
				dimSig = append(dimSig, t.Index+":fixed")
				continue
			}
			role := roleFull
			if r, ok := reg.roles[t.Index]; ok {
				role = r
			}
			switch role {
			case roleFull:
				dp.entries[t.Index] = roleFull
				dp.size = dp.size.MulConst(sc.trip(t.Index))
				dimSig = append(dimSig, t.Index+":full")
				if t.Index == w1 {
					w1InS = true
				} else {
					rest = rest.MulConst(sc.trip(t.Index))
				}
			case rolePinned:
				dimSig = append(dimSig, t.Index+":pinned")
			case rolePi:
				dp.entries[t.Index] = rolePi
				var lf LinForm
				if reg.kind == regionSuffix {
					lf = LinForm{Base: sc.trip(t.Index), Slope: expr.Const(-1)}
					dimSig = append(dimSig, t.Index+":piS")
				} else {
					lf = LinForm{Base: expr.One(), Slope: expr.One()}
					dimSig = append(dimSig, t.Index+":piP")
				}
				var ok bool
				dp.size, ok = dp.size.Mul(lf)
				exact = exact && ok
			}
		}
		sort.Strings(dimSig)
		sigParts = append(sigParts, strings.Join(dimSig, ","))
		b.dims = append(b.dims, dp)
		var ok bool
		b.size, ok = b.size.Mul(dp.size)
		exact = exact && ok
	}
	if sc.opts.CarrierCorrection && carrierHere && w1 != "" {
		if w1InS {
			b.size = b.size.Add(rest) // staircase split along w1
		} else {
			b.size = b.size.MulConst(expr.Const(2))
		}
	}
	b.sig = b.array + "[" + strings.Join(sigParts, ";") + "]"
	return b, exact
}

// regionBoxes computes the boxes of every reference inside the region.
func (sc *spanCoster) regionBoxes(reg region, carrier *loopir.Loop) ([]box, bool) {
	var out []box
	exact := true
	for _, q := range sc.refsIn[reg.node] {
		b, ok := sc.refBox(q, reg, carrier)
		out = append(out, b)
		exact = exact && ok
	}
	return out, exact
}

// ArrayCost is one array's contribution to a span's stack distance — the
// per-array costs the paper's Table 1 itemizes ("A: 2, B: Tk, C: Tk").
type ArrayCost struct {
	Array string
	Size  LinForm
}

// mergeBoxesDetailed deduplicates identical boxes and removes boxes
// contained in another; remaining boxes are summed, and the sum is also
// broken down per array. The bool result reports whether the union was
// computed without the additive over-approximation (it is false only when
// two overlapping, non-nested boxes of the same array are summed).
func mergeBoxesDetailed(boxes []box) (LinForm, bool, []ArrayCost) {
	total, exact, kept := mergeBoxesKept(boxes)
	perArray := map[string]LinForm{}
	var order []string
	for _, b := range kept {
		if _, ok := perArray[b.array]; !ok {
			order = append(order, b.array)
			perArray[b.array] = LFConst(expr.Zero())
		}
		perArray[b.array] = perArray[b.array].Add(b.size)
	}
	sort.Strings(order)
	costs := make([]ArrayCost, len(order))
	for i, name := range order {
		costs[i] = ArrayCost{Array: name, Size: perArray[name]}
	}
	return total, exact, costs
}

func mergeBoxesKept(boxes []box) (LinForm, bool, []box) {
	exact := true
	seen := map[string]int{}
	var uniq []box
	for _, b := range boxes {
		if i, ok := seen[b.sig]; ok {
			// Same element set described twice; sizes may differ by a small
			// carrier correction — keep the larger to stay conservative.
			if larger(b.size, uniq[i].size) {
				uniq[i] = b
			}
			continue
		}
		seen[b.sig] = len(uniq)
		uniq = append(uniq, b)
	}
	// Containment pass within each array.
	kept := make([]bool, len(uniq))
	for i := range kept {
		kept[i] = true
	}
	for i := range uniq {
		if !kept[i] {
			continue
		}
		for j := range uniq {
			if i == j || !kept[j] || !kept[i] {
				continue
			}
			if contains(uniq[i], uniq[j]) {
				kept[j] = false
			}
		}
	}
	total := LFConst(expr.Zero())
	byArray := map[string]int{}
	var survivors []box
	for i, b := range uniq {
		if !kept[i] {
			continue
		}
		total = total.Add(b.size)
		byArray[b.array]++
		survivors = append(survivors, b)
	}
	// Two surviving boxes of the same array with different shapes are summed;
	// if their shapes are not provably disjoint this is an over-approximation.
	for _, n := range byArray {
		if n > 1 {
			exact = false
		}
	}
	return total, exact, survivors
}

// contains reports whether box a's element set provably contains box b's:
// same array, same dimension structure, and per dimension every loop of b
// present in a with at-least-as-large a role (full > pi > pinned/absent),
// with a allowed to vary extra loops fully.
func contains(a, b box) bool {
	if a.array != b.array || len(a.dims) != len(b.dims) {
		return false
	}
	for d := range a.dims {
		for l, rb := range b.dims[d].entries {
			ra, ok := a.dims[d].entries[l]
			if !ok || roleRank(ra) < roleRank(rb) {
				return false
			}
		}
		// Loops varying only in a must be full to guarantee coverage of b's
		// fixed position — which we cannot verify symbolically, so require
		// that a has no extra varying loops in this dimension unless b has
		// none at all (then a is a superset sweep of a single point only if
		// the fixed positions coincide, which we cannot prove). Be strict:
		for l := range a.dims[d].entries {
			if _, ok := b.dims[d].entries[l]; !ok {
				return false
			}
		}
	}
	return true
}

// larger reports whether linear form a is provably at least b (their
// difference is a non-negative constant polynomial); used only to pick
// between two descriptions of the same element set.
func larger(a, b LinForm) bool {
	d := expr.Sub(a.Base, b.Base)
	if v, ok := d.ConstVal(); ok && v >= 0 {
		return true
	}
	return false
}

func roleRank(r roleKind) int {
	switch r {
	case roleFull:
		return 2
	case rolePi:
		return 1
	default:
		return 0
	}
}

// bodySpanCost returns the stack distance of a self-reuse carried by loop L:
// the union of the boxes of every reference within one complete iteration of
// L's body, with L as the carrier.
func (sc *spanCoster) bodySpanCost(L *loopir.Loop) (LinForm, bool, []ArrayCost) {
	sw := sc.spanTimer.Start()
	defer sw.Stop()
	boxes, exact1 := sc.regionBoxes(region{node: L, kind: regionFull}, L)
	total, exact2, costs := mergeBoxesDetailed(boxes)
	return total, exact1 && exact2, costs
}

// endpoint is one end of a span between two references: the reference,
// the branch of their common parent that holds it, and the carrier
// iteration it sits in (the phase of its regions). roles and pi are the
// geometry of the branch's partial region. Walking the reference's
// enclosing loops inside the branch outermost-first, the loops before the
// distinguished loop π do not appear in the reference and stay pinned at
// the endpoint's position; π, the outermost loop the reference names,
// covers a partial range; loops deeper than π run fully in the bulk of the
// region (only the final partial slice pins them, which is a lower-order
// effect). Without π every loop is pinned and the region is a single slice.
type endpoint struct {
	site   loopir.RefSite
	branch loopir.Node
	phase  int
	roles  map[string]roleKind
	pi     string
}

func (sc *spanCoster) endpointOf(site loopir.RefSite, branch loopir.Node, phase int) endpoint {
	e := endpoint{site: site, branch: branch, phase: phase, roles: map[string]roleKind{}}
	appears := subscriptIndices(site.Ref())
	for _, l := range sc.nest.Enclosing(site.Stmt) {
		switch {
		case !sc.loopsIn[branch][l.Index] || e.pi != "":
			// outside the branch, or deeper than π: full
		case appears[l.Index]:
			e.pi = l.Index
			e.roles[l.Index] = rolePi
		default:
			e.roles[l.Index] = rolePinned
		}
	}
	return e
}

// betweenSpanCost returns the stack distance of a reuse whose source src is
// the last access to the array in its branch and whose target tgt sits in a
// later branch: the suffix of the source branch, the regions between in
// full, and the prefix of the target branch. A cross-statement span has no
// carrier and every region at phase 0. A tail-to-head span crosses one step
// of carrier: the source side sits in the previous iteration (phase 1) and
// the target side in the current one (phase 2), and subscript dimensions
// naming the carrier take the phase's single iteration value.
func (sc *spanCoster) betweenSpanCost(src, tgt endpoint, between []region, carrier *loopir.Loop) (LinForm, bool, []ArrayCost) {
	sw := sc.spanTimer.Start()
	defer sw.Stop()
	boxes, exact := sc.regionBoxes(region{node: src.branch, kind: regionSuffix, roles: src.roles, phase: src.phase}, carrier)
	pre, ok := sc.regionBoxes(region{node: tgt.branch, kind: regionPrefix, roles: tgt.roles, phase: tgt.phase}, carrier)
	exact = exact && ok
	boxes = append(boxes, pre...)

	// Complement rule: the reused array's suffix and prefix boxes jointly
	// cover exactly the full sweep of the common structure (the source's
	// high side plus the target's low side of the π dimension). Replace them
	// with the full boxes of both endpoints, in which every loop inside the
	// branch runs fully; duplicate and contained boxes are folded by
	// mergeBoxesDetailed.
	if sc.opts.ComplementRule {
		array := tgt.site.Ref().Array
		boxes = slices.DeleteFunc(boxes, func(b box) bool { return b.array == array })
		fullTgt, ok1 := sc.refBox(tgt.site, region{node: tgt.branch, kind: regionFull, phase: tgt.phase}, carrier)
		fullSrc, ok2 := sc.refBox(src.site, region{node: src.branch, kind: regionFull, phase: src.phase}, carrier)
		exact = exact && ok1 && ok2
		boxes = append(boxes, fullTgt, fullSrc)
	}
	for _, reg := range between {
		bs, ok := sc.regionBoxes(reg, carrier)
		exact = exact && ok
		boxes = append(boxes, bs...)
	}
	total, ok, costs := mergeBoxesDetailed(boxes)
	return total, exact && ok, costs
}

// childContaining returns the child of loop L whose subtree contains the
// statement, or nil.
func (sc *spanCoster) childContaining(L *loopir.Loop, s *loopir.Stmt) loopir.Node {
	for _, child := range L.Body {
		for _, r := range sc.refsIn[child] {
			if r.Stmt == s {
				return child
			}
		}
	}
	return nil
}

// subscriptIndices is the set of loop indices a reference's subscripts name.
func subscriptIndices(ref *loopir.Ref) map[string]bool {
	out := map[string]bool{}
	for _, sub := range ref.Subs {
		for _, t := range sub.Terms {
			out[t.Index] = true
		}
	}
	return out
}
