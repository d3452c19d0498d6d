package core

import (
	"fmt"

	"repro/internal/expr"
)

// The associativity-aware extension of the miss estimator. The paper's model
// predicts misses for a fully-associative LRU cache; every real cache is
// set-associative, so a reuse whose span fits the capacity can still miss
// when the span's footprint maps unevenly onto the S = C/(W·L) sets. Two
// mechanisms matter for the paper's subscript class:
//
//   - Self-interference: the reused chunk of the component's own array is an
//     affine lattice walk (each in-span loop advances the element address by
//     a fixed stride σ), so the sets it can reach form the subgroup of Z_S
//     generated by its per-loop strides — S/gcd(S, σ/L) residues per
//     generator (the cache-associativity-lattice view of Adjiashvili &
//     Haus). A chunk of `lines` lines reaching only D < min(S, lines)
//     distinct sets stacks lines/D deep; it cannot survive in an LRU set of
//     W ways once lines/D > W — the classic power-of-two-stride resonance.
//
//   - Cross-interference: the other arrays touched inside the reuse span
//     land on the reused chunk's sets with probability ≈ footprint/S each;
//     whenever the intruding lines exhaust the W − lines/D ways left over,
//     the reused line is evicted even though the total span fits the
//     capacity. The expected eviction probability is evaluated exactly over
//     the span's per-array breakdown (the paper's Table 1 itemization) by
//     enumerating intrusion combinations.
//
// Both terms degrade to the fully-associative classifier as S → 1: the
// lattice covers every "set", the leftover ways become C/L − lines, and the
// prediction loop (predict in compiled.go) skips the conflict model
// outright, so predictions without a Ways geometry are the paper's model
// byte for byte.

// CacheConfig describes the LRU cache geometry a prediction query classifies
// against. The zero Ways means fully associative (the paper's model); the
// zero LineElems means one-element lines. CapacityElems must be divisible by
// Ways·LineElems, mirroring cachesim.NewAssocCache.
type CacheConfig struct {
	CapacityElems int64
	Ways          int64
	LineElems     int64
}

// norm resolves the zero-value defaults: LineElems 0 → 1.
func (cfg CacheConfig) norm() CacheConfig {
	if cfg.LineElems == 0 {
		cfg.LineElems = 1
	}
	return cfg
}

// Validate checks the geometry, mirroring cachesim.NewAssocCache: positive
// capacity and line, line dividing capacity, and — when Ways is non-zero —
// ways dividing the line count.
func (cfg CacheConfig) Validate() error {
	cfg = cfg.norm()
	if cfg.CapacityElems <= 0 || cfg.LineElems <= 0 || cfg.Ways < 0 {
		return fmt.Errorf("core: invalid cache geometry (%d elems, %d ways, line %d)", cfg.CapacityElems, cfg.Ways, cfg.LineElems)
	}
	lines := cfg.CapacityElems / cfg.LineElems
	if lines*cfg.LineElems != cfg.CapacityElems {
		return fmt.Errorf("core: line size %d must divide capacity %d", cfg.LineElems, cfg.CapacityElems)
	}
	if cfg.Ways == 0 {
		return nil // fully associative
	}
	if lines/cfg.Ways == 0 || (lines/cfg.Ways)*cfg.Ways != lines {
		return fmt.Errorf("core: cache geometry (%d elems, %d ways, line %d): %d lines not divisible by %d ways", cfg.CapacityElems, cfg.Ways, cfg.LineElems, lines, cfg.Ways)
	}
	return nil
}

// FullyAssociative reports whether the geometry is (explicitly or by the
// zero-Ways default) fully associative — one set.
func (cfg CacheConfig) FullyAssociative() bool {
	return cfg.Ways == 0 || cfg.Sets() == 1
}

// Sets returns the number of sets S = capacity/(ways·line); 1 when fully
// associative. The geometry must be valid.
func (cfg CacheConfig) Sets() int64 {
	cfg = cfg.norm()
	if cfg.Ways == 0 {
		return 1
	}
	return cfg.CapacityElems / (cfg.Ways * cfg.LineElems)
}

// conflictLayer is the compiled per-component conflict model, built once by
// compileAnalysis alongside the component programs. Its programs reuse the
// analysis SymTab but are excluded from programCount(): the "expr.programs"
// gauge keeps its fully-associative meaning.
type conflictLayer struct {
	comp []conflictComp // parallel to compiledAnalysis.comps
}

// conflictGen is one in-span generator of the reused chunk: the trip count
// of a loop that varies inside the component's reuse span and its
// element-stride contribution through every subscript dimension of the
// target reference it occurs in.
type conflictGen struct {
	trip  *expr.Program
	terms []conflictTerm
}

type conflictTerm struct {
	dim    int
	stride *expr.Program // nil means stride 1
}

// conflictChunk is one non-self array's span footprint (a breakdown entry):
// the lines an intruder deposits across the sets during the reuse span.
type conflictChunk struct {
	base  *expr.Program
	slope *expr.Program // nil when constant in the free variable
}

// conflictComp is the compiled conflict model of one component.
type conflictComp struct {
	// gens are the target reference's subscript generators restricted to
	// the loops that vary within the reuse span (innermost first): for
	// self-carried reuse the loops strictly inside the carrier, for
	// cross-statement reuse the loops strictly inside the innermost common
	// ancestor of source and target.
	gens []conflictGen
	// dims are the extent programs of the referenced array (row-major
	// weights for the generators' strides).
	dims []*expr.Program
	// selfBase/selfSlope evaluate the self array's span footprint; nil
	// selfBase falls back to the full stack distance.
	selfBase  *expr.Program
	selfSlope *expr.Program
	// others are the remaining breakdown chunks (the intruders).
	others []conflictChunk
}

// buildConflictLayer compiles the conflict model. It only re-interns
// expressions already reachable from the analysis (trips, dims, subscript
// strides, breakdown sizes), so it introduces no new SymTab slots.
func buildConflictLayer(a *Analysis, ca *compiledAnalysis) *conflictLayer {
	cl := &conflictLayer{comp: make([]conflictComp, len(a.Components))}

	tripProgs := map[string]*expr.Program{}
	for _, t := range ca.trips {
		if tripProgs[t.index] == nil {
			tripProgs[t.index] = t.prog
		}
	}
	dimProgs := map[string][]*expr.Program{}
	for _, d := range ca.dims {
		dimProgs[d.array] = append(dimProgs[d.array], d.prog)
	}

	for i, c := range a.Components {
		cc := conflictComp{}
		ref := c.Site.Ref()
		cc.dims = dimProgs[ref.Array]

		// The loops whose iterations constitute one reuse span.
		inSpan := map[string]bool{}
		encl := a.Nest.Enclosing(c.Site.Stmt)
		switch c.Kind {
		case SelfCarried:
			below := false
			for _, l := range encl {
				if below {
					inSpan[l.Index] = true
				}
				if l == c.Carrier {
					below = true
				}
			}
		case CrossStmt:
			// Innermost common enclosing loop of source and target; the
			// span runs within one of its iterations.
			srcEncl := a.Nest.Enclosing(c.Source.Stmt)
			common := 0
			for common < len(encl) && common < len(srcEncl) && encl[common] == srcEncl[common] {
				common++
			}
			for _, l := range encl[common:] {
				inSpan[l.Index] = true
			}
		}

		for li := len(encl) - 1; li >= 0; li-- {
			l := encl[li]
			if !inSpan[l.Index] {
				continue
			}
			var terms []conflictTerm
			for di, sub := range ref.Subs {
				for _, t := range sub.Terms {
					if t.Index != l.Index {
						continue
					}
					ct := conflictTerm{dim: di}
					if t.Stride != nil {
						ct.stride = expr.Compile(t.Stride, ca.tab)
					}
					terms = append(terms, ct)
				}
			}
			if len(terms) > 0 {
				cc.gens = append(cc.gens, conflictGen{trip: tripProgs[l.Index], terms: terms})
			}
		}

		for _, bc := range c.Breakdown {
			base := expr.Compile(bc.Size.Base, ca.tab)
			var slope *expr.Program
			if !bc.Size.IsConst() {
				slope = expr.Compile(bc.Size.Slope, ca.tab)
			}
			if bc.Array == ref.Array && cc.selfBase == nil {
				cc.selfBase, cc.selfSlope = base, slope
			} else {
				cc.others = append(cc.others, conflictChunk{base: base, slope: slope})
			}
		}
		cl.comp[i] = cc
	}
	return cl
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		a = -a
	}
	return a
}

// genVal is one evaluated generator: the element stride and iteration count
// of one in-span subscript loop.
type genVal struct {
	stride int64
	trip   int64
}

// selfSpread returns D: the estimated number of distinct sets the reused
// chunk of `chunk` elements occupies on an S-set cache with L-element
// lines. The chunk is filled greedily from the innermost in-span generator
// out — c_i = min(trip_i, remaining points) — and D is bounded three ways:
//
//	D ≤ Π min(c_i, S/gcd(S, σ_i/L))   per-generator lattice orbits
//	D ≤ S / gcd(S, all σ_i/L)         the joint subgroup the strides generate
//	D ≤ min(S, lines)                 can't exceed the sets or the chunk
//
// Strides not divisible by the line size slide across line boundaries and
// behave non-resonantly (σ/L → 1, full orbit).
func selfSpread(gens []genVal, chunk, S, L int64) int64 {
	lines := (chunk + L - 1) / L
	if lines < 1 {
		lines = 1
	}
	remaining := chunk
	D := int64(1)
	gAll := S
	for _, g := range gens {
		if remaining <= 1 {
			break
		}
		if g.stride == 0 || g.trip <= 1 {
			continue
		}
		c := g.trip
		if c > remaining {
			c = remaining
		}
		remaining = (remaining + c - 1) / c
		sl := int64(1)
		if g.stride%L == 0 {
			sl = g.stride / L
		}
		gi := gcd64(S, sl%S) // gcd(S, 0) == S: full resonance
		orbit := S / gi
		if c < orbit {
			orbit = c
		}
		if D < S {
			D *= orbit
		}
		gAll = gcd64(gAll, gi)
	}
	if len(gens) == 0 {
		// No structured generators (e.g. a constant subscript, or a span
		// carried entirely by strides we cannot see): assume the uniform
		// spread a fully-associative model implies.
		D = S
	}
	if joint := S / gAll; D > joint && len(gens) > 0 {
		D = joint
	}
	if D > lines {
		D = lines
	}
	if D > S {
		D = S
	}
	if D < 1 {
		D = 1
	}
	return D
}

// evictProb returns the probability that intruding chunks claim more than
// `slack` ways of the reused line's set, assuming each chunk lands at an
// arbitrary set offset: chunk k of `lines` lines covers min(lines, S) sets
// (load ⌈lines/S⌉ where it lands), so it hits a given set with probability
// min(lines, S)/S. Chunks are independent; the sum over intrusion
// combinations is exact for the ≤ handful of arrays a span touches.
func evictProb(chunks []chunkVal, slack float64, S int64) float64 {
	// Combination enumeration is exponential in the chunk count; beyond a
	// dozen arrays, pool the smallest chunks into the always-present load.
	const maxEnum = 12
	var baseLoad float64
	if len(chunks) > maxEnum {
		for _, ch := range chunks[maxEnum:] {
			baseLoad += ch.load * ch.p
		}
		chunks = chunks[:maxEnum]
	}
	var prob float64
	n := len(chunks)
	for mask := 0; mask < 1<<n; mask++ {
		load := baseLoad
		p := 1.0
		for k := 0; k < n; k++ {
			if mask&(1<<k) != 0 {
				load += chunks[k].load
				p *= chunks[k].p
			} else {
				p *= 1 - chunks[k].p
			}
		}
		if load > slack {
			prob += p
		}
	}
	if prob < 0 {
		prob = 0
	}
	if prob > 1 {
		prob = 1
	}
	return prob
}

type chunkVal struct {
	p    float64 // probability the chunk covers a given set
	load float64 // lines it stacks on each set it covers
}

// scratchLen is the capacity of classify's stack buffers for one
// component's intruding chunks, in-span generators and array extents; the
// built-in kernels need at most 8. A larger component spills to the heap.
const scratchLen = 8

// conflictEval is the per-prediction scratch: one frame, one geometry. It
// and classify's buffers live on the stack, so scoring a candidate on a
// set-associative geometry allocates nothing.
type conflictEval struct {
	ca   *compiledAnalysis
	f    *expr.Frame
	sets int64
	ways int64
	line int64
	// footprint is the total element count of every array the nest touches
	// (lazily computed); footprintOK records whether it has been evaluated.
	footprint   int64
	footprintOK bool
}

func (ca *compiledAnalysis) newConflictEval(f *expr.Frame, cfg CacheConfig) *conflictEval {
	return &conflictEval{ca: ca, f: f, sets: cfg.Sets(), ways: cfg.Ways, line: cfg.norm().LineElems}
}

// totalFootprint evaluates the combined size of every referenced array —
// the extent of the contiguous address space the trace layout assigns.
// ca.dims lists each array's extents together, first dimension first.
func (ce *conflictEval) totalFootprint() (int64, error) {
	if ce.footprintOK {
		return ce.footprint, nil
	}
	var total, size int64
	for _, d := range ce.ca.dims {
		v, err := d.prog.Eval(ce.f)
		if err != nil {
			return 0, err
		}
		if d.di == 0 {
			total += size
			size = v
		} else {
			size *= v
		}
	}
	total += size
	ce.footprint = total
	ce.footprintOK = true
	return total, nil
}

// classify is classifyComponent under the set-associative geometry: the
// fully-associative classification first (capacity misses are a superset of
// themselves under any mapping), then the conflict model converts the
// expected-evicted fraction of the surviving reuses into additional misses.
func (ce *conflictEval) classify(i int, c *Component, v componentValues, capacity int64) (ComponentMisses, error) {
	cm := classifyComponent(c, v, capacity)
	if ce.sets <= 1 || v.Inf || v.Count == 0 {
		return cm, nil
	}
	cc := &ce.ca.conf.comp[i]

	// Evaluate the span's per-array footprints at the free-variable
	// midpoint — the same representative position lineSD uses.
	at := int64(0)
	if !v.Const && v.Range > 0 {
		at = v.Range / 2
	}
	evalChunk := func(base, slope *expr.Program) (int64, error) {
		b, err := base.Eval(ce.f)
		if err != nil {
			return 0, err
		}
		if slope != nil {
			s, err := slope.Eval(ce.f)
			if err != nil {
				return 0, err
			}
			b += s * at
		}
		if b < 0 {
			b = 0
		}
		return b, nil
	}

	var selfSize int64
	var err error
	if cc.selfBase != nil {
		if selfSize, err = evalChunk(cc.selfBase, cc.selfSlope); err != nil {
			return cm, err
		}
	} else if v.Const {
		selfSize = v.SD
	} else {
		selfSize = v.Base + v.Slope*at
	}
	if selfSize < 1 {
		selfSize = 1
	}

	gens, err := ce.evalGens(cc, make([]genVal, 0, scratchLen))
	if err != nil {
		return cm, err
	}
	selfLines := (selfSize + ce.line - 1) / ce.line
	D := selfSpread(gens, selfSize, ce.sets, ce.line)

	// Per-set self load: D sets share selfLines lines, so nHigh sets hold
	// ⌈selfLines/D⌉ and the rest ⌊selfLines/D⌋. A set whose load exceeds the
	// ways thrashes (the cyclic-reuse LRU pathology, per set): every line in
	// it misses on reuse. This cuts both ways versus the fully-associative
	// classifier — resonant chunks miss although the span fits the capacity,
	// and a span slightly over capacity retains the lines of its non-
	// overflowing sets instead of thrashing outright.
	cLo := selfLines / D
	nHigh := selfLines - cLo*D
	type stratum struct {
		weight float64 // fraction of reused lines in sets of this load
		slack  float64 // ways left for intruders; < 0 thrashes outright
	}
	strata := make([]stratum, 0, 2)
	if nHigh > 0 {
		wHigh := float64(nHigh*(cLo+1)) / float64(selfLines)
		strata = append(strata,
			stratum{weight: wHigh, slack: float64(ce.ways - cLo - 1)},
			stratum{weight: 1 - wHigh, slack: float64(ce.ways - cLo)})
	} else {
		strata = append(strata, stratum{weight: 1, slack: float64(ce.ways - cLo)})
	}

	// The trace layout is contiguous, so two addresses alias only when they
	// are a multiple of S·L apart within the combined array footprint: a
	// line has footprint/(S·L) − 1 aliases, and none at all when the whole
	// footprint fits one lap of the set space.
	footprint, err := ce.totalFootprint()
	if err != nil {
		return cm, err
	}
	aliasLaps := float64(footprint)/float64(ce.sets*ce.line) - 1
	if aliasLaps <= 0 {
		return cm, nil
	}
	if aliasLaps > 1 {
		aliasLaps = 1
	}

	chunks := make([]chunkVal, 0, scratchLen)
	for _, och := range cc.others {
		size, err := evalChunk(och.base, och.slope)
		if err != nil {
			return cm, err
		}
		lines := (size + ce.line - 1) / ce.line
		if lines <= 0 {
			continue
		}
		// The chunk covers lines/S of the sets, so it holds an alias of the
		// reused line with that probability — damped by the lap count when
		// the footprint barely exceeds one lap of the set space (few
		// addresses have any alias at all).
		p := float64(lines) / float64(ce.sets) * aliasLaps
		if p > 1 {
			p = 1
		}
		load := float64(lines) / float64(ce.sets)
		if load < 1 {
			load = 1
		}
		chunks = append(chunks, chunkVal{p: p, load: load})
	}

	var f float64
	for _, st := range strata {
		if st.slack < 0 {
			f += st.weight
		} else {
			f += st.weight * evictProb(chunks, st.slack, ce.sets)
		}
	}
	cm.Misses = int64(f*float64(cm.Count) + 0.5)
	if cm.Misses > cm.Count {
		cm.Misses = cm.Count
	}
	return cm, nil
}

// evalGens appends the component's in-span generators to out: row-major
// dimension weights times the per-term subscript strides.
func (ce *conflictEval) evalGens(cc *conflictComp, out []genVal) ([]genVal, error) {
	if len(cc.gens) == 0 {
		return out, nil
	}
	// The extents, evaluated in order, become the weights in place.
	weights := make([]int64, 0, scratchLen)
	for _, p := range cc.dims {
		v, err := p.Eval(ce.f)
		if err != nil {
			return nil, err
		}
		weights = append(weights, v)
	}
	w := int64(1)
	for i := len(weights) - 1; i >= 0; i-- {
		weights[i], w = w, w*weights[i]
	}
	for _, g := range cc.gens {
		trip, err := g.trip.Eval(ce.f)
		if err != nil {
			return nil, err
		}
		var sigma int64
		for _, t := range g.terms {
			sv := int64(1)
			if t.stride != nil {
				if sv, err = t.stride.Eval(ce.f); err != nil {
					return nil, err
				}
			}
			if t.dim < len(weights) {
				sigma += sv * weights[t.dim]
			} else {
				sigma += sv
			}
		}
		if sigma < 0 {
			sigma = -sigma
		}
		out = append(out, genVal{stride: sigma, trip: trip})
	}
	return out, nil
}
