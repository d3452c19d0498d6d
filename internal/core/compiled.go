package core

import (
	"fmt"

	"repro/internal/expr"
)

// The compiled layer of an Analysis: every environment-dependent expression
// the miss estimator evaluates — loop trips, array extents, and each
// component's Count/SD/FreeRange — flattened once into expr.Programs over a
// single analysis-wide SymTab. Every prediction query then runs through a
// Frame without allocating an Env map or walking a tree, which is what makes
// per-candidate evaluation in the tile search cheap enough for searches that
// score millions of candidates.
//
// Slot assignment is deterministic: nest symbols first (sorted, as
// SymbolNames returns them), then any remaining symbols in the order the
// trip, extent and component programs are compiled. Re-analyzing the same
// nest therefore reproduces the same name→slot mapping, which keeps the
// EvalCache's packed binary keys stable (TestAnalysisSymTabStableUnderReanalysis
// pins the property).
type compiledAnalysis struct {
	tab      *expr.SymTab
	symbols  []string // nest.SymbolNames(), sorted
	symSlots []int    // slot of symbols[i]
	trips    []tripProg
	dims     []dimProg
	comps    []compiledComponent
	// conf is the associativity-aware stride-lattice layer (conflict.go).
	// Its programs are excluded from programCount so the "expr.programs"
	// gauge keeps measuring the fully-associative prediction pipeline.
	conf *conflictLayer
}

type tripProg struct {
	index string
	src   *expr.Expr
	prog  *expr.Program
}

type dimProg struct {
	array string
	di    int
	src   *expr.Expr
	prog  *expr.Program
}

type compiledComponent struct {
	count   *expr.Program
	inf     bool // first touch: SD.Base is the Inf sentinel
	constSD bool
	base    *expr.Program // nil when inf
	slope   *expr.Program // nil when inf or constSD
	rng     *expr.Program // nil when inf or constSD
	site    string        // Site.Key(), for the non-positive-range error
}

// compileAnalysis builds the compiled layer. Called once from
// AnalyzeWithOptions; the analysis must not be mutated afterwards.
func compileAnalysis(a *Analysis) *compiledAnalysis {
	ca := &compiledAnalysis{tab: expr.NewSymTab()}
	ca.symbols = a.Nest.SymbolNames()
	ca.symSlots = make([]int, len(ca.symbols))
	for i, name := range ca.symbols {
		ca.symSlots[i] = ca.tab.Slot(name)
	}
	for _, l := range a.Nest.Loops() {
		ca.trips = append(ca.trips, tripProg{
			index: l.Index, src: l.Trip, prog: expr.Compile(l.Trip, ca.tab),
		})
	}
	for _, arr := range a.Nest.Arrays {
		for di, d := range arr.Dims {
			ca.dims = append(ca.dims, dimProg{
				array: arr.Name, di: di, src: d, prog: expr.Compile(d, ca.tab),
			})
		}
	}
	ca.comps = make([]compiledComponent, len(a.Components))
	for i, c := range a.Components {
		cc := compiledComponent{
			count: expr.Compile(c.Count, ca.tab),
			site:  c.Site.Key(),
		}
		switch {
		case c.SD.Base.IsInf():
			cc.inf = true
		case c.SD.IsConst():
			cc.constSD = true
			cc.base = expr.Compile(c.SD.Base, ca.tab)
		default:
			cc.base = expr.Compile(c.SD.Base, ca.tab)
			cc.slope = expr.Compile(c.SD.Slope, ca.tab)
			cc.rng = expr.Compile(c.FreeRange, ca.tab)
		}
		ca.comps[i] = cc
	}
	ca.conf = buildConflictLayer(a, ca)
	return ca
}

// programCount reports how many programs the compiled layer holds (the
// "expr.programs" gauge).
func (ca *compiledAnalysis) programCount() int64 {
	n := int64(len(ca.trips) + len(ca.dims))
	for _, cc := range ca.comps {
		n++ // count
		if cc.base != nil {
			n++
		}
		if cc.slope != nil {
			n++
		}
		if cc.rng != nil {
			n++
		}
	}
	return n
}

// SymTab returns the analysis-wide symbol table every compiled program and
// Frame of this analysis indexes.
func (a *Analysis) SymTab() *expr.SymTab { return a.ca.tab }

// NewFrame returns an empty frame over the analysis symbol table. Frames are
// single-goroutine; give each worker its own and reuse it across candidates.
func (a *Analysis) NewFrame() *expr.Frame { return a.ca.tab.NewFrame() }

// GetFrame returns an empty frame over the analysis symbol table, recycled
// through a pool. The caller owns the frame exclusively until PutFrame; the
// serving layer evaluates each request on a pooled frame so the per-request
// steady state allocates no frame storage. Frames remain single-goroutine
// scratch between Get and Put.
func (a *Analysis) GetFrame() *expr.Frame {
	if f, ok := a.framePool.Get().(*expr.Frame); ok {
		return f
	}
	return a.NewFrame()
}

// PutFrame resets the frame and returns it to the pool. The frame must have
// come from GetFrame (or NewFrame over the same analysis) and must not be
// used after the call.
func (a *Analysis) PutFrame(f *expr.Frame) {
	if f == nil {
		return
	}
	f.Reset()
	a.framePool.Put(f)
}

// validateFrame is loopir.Nest.ValidateEnv over a frame: same checks, same
// error messages, same order, but evaluated through the compiled trip and
// extent programs.
func (ca *compiledAnalysis) validateFrame(f *expr.Frame) error {
	for i, name := range ca.symbols {
		v, ok := f.Get(ca.symSlots[i])
		if !ok {
			return fmt.Errorf("loopir: env missing symbol %s", name)
		}
		if v <= 0 {
			return fmt.Errorf("loopir: symbol %s must be positive, got %d", name, v)
		}
	}
	for _, t := range ca.trips {
		v, err := t.prog.Eval(f)
		if err != nil {
			return err
		}
		if v <= 0 {
			return fmt.Errorf("loopir: loop %s trip %s evaluates to %d", t.index, t.src, v)
		}
	}
	for _, d := range ca.dims {
		v, err := d.prog.Eval(f)
		if err != nil {
			return err
		}
		if v <= 0 {
			return fmt.Errorf("loopir: array %s dim %d extent %s evaluates to %d", d.array, d.di, d.src, v)
		}
	}
	return nil
}

// evalComponentValuesFrame evaluates one component's capacity-independent
// values through its compiled programs. The tree-walking oracle in the tests
// must agree with it value for value and error for error.
func (cc *compiledComponent) evalComponentValuesFrame(f *expr.Frame) (componentValues, error) {
	var v componentValues
	count, err := cc.count.Eval(f)
	if err != nil {
		return v, err
	}
	if count < 0 {
		count = 0 // e.g. (trip-1) when a loop has a single iteration
	}
	v.Count = count
	if cc.inf {
		v.Inf = true
		return v, nil
	}
	if count == 0 {
		// No instances: the component contributes nothing at any capacity.
		// Short-circuit before the SD/range programs, which may be
		// degenerate (e.g. a zero free range) in the same boundary regimes
		// that zero the count.
		v.Const = true
		return v, nil
	}
	if cc.constSD {
		v.Const = true
		v.SD, err = cc.base.Eval(f)
		return v, err
	}
	if v.Base, err = cc.base.Eval(f); err != nil {
		return v, err
	}
	if v.Slope, err = cc.slope.Eval(f); err != nil {
		return v, err
	}
	if v.Range, err = cc.rng.Eval(f); err != nil {
		return v, err
	}
	if v.Range <= 0 {
		return v, fmt.Errorf("core: non-positive free range for %s", cc.site)
	}
	return v, nil
}

// PredictMissesFrameConfig is the model's prediction query: it evaluates the
// analysis at the frame's loop bounds and tile sizes and predicts the misses
// of an LRU cache with the given geometry. A component misses when its stack
// distance exceeds the capacity; components with position-dependent stack
// distance (§5.2) contribute the exact number of positions whose distance
// exceeds it. A set-associative cfg adds the conflict model's self- and
// cross-interference misses (conflict.go); a fully-associative one is the
// paper's model. The frame must stem from a.SymTab().
func (a *Analysis) PredictMissesFrameConfig(f *expr.Frame, cfg CacheConfig) (*MissReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return a.report(f, cfg.norm(), nil)
}

// PredictMissesFrame is the fully-associative shorthand for
// PredictMissesFrameConfig at cacheElems elements. It does not validate the
// capacity.
func (a *Analysis) PredictMissesFrame(f *expr.Frame, cacheElems int64) (*MissReport, error) {
	return a.report(f, CacheConfig{CapacityElems: cacheElems}.norm(), nil)
}

// report runs predict into a fresh report.
func (a *Analysis) report(f *expr.Frame, cfg CacheConfig, ec *EvalCache) (*MissReport, error) {
	rep := &MissReport{CacheElems: cfg.CapacityElems, BySite: map[string]int64{}}
	if _, err := a.predict(f, cfg, ec, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// predict is the one classification loop behind every prediction query. It
// validates the frame, takes each component's values from the memo when ec
// is non-nil and from the compiled programs otherwise, and classifies them
// by capacity or, when cfg is set-associative, by the conflict model. It
// fills rep when rep is non-nil and returns the total. cfg must be
// normalized.
func (a *Analysis) predict(f *expr.Frame, cfg CacheConfig, ec *EvalCache, rep *MissReport) (int64, error) {
	if err := a.ca.validateFrame(f); err != nil {
		return 0, err
	}
	var ce *conflictEval // stays nil on the fully-associative path
	if !cfg.FullyAssociative() {
		ce = a.ca.newConflictEval(f, cfg)
	}
	var total int64
	for i, c := range a.Components {
		var v componentValues
		var err error
		if ec != nil {
			v, err = ec.comps[i].values(ec, f)
		} else {
			v, err = a.ca.comps[i].evalComponentValuesFrame(f)
		}
		if err != nil {
			return 0, err
		}
		var cm ComponentMisses
		if ce != nil {
			if cm, err = ce.classify(i, c, v, cfg.CapacityElems); err != nil {
				return 0, err
			}
		} else {
			cm = classifyComponent(c, v, cfg.CapacityElems)
		}
		total += cm.Misses
		if rep != nil {
			rep.Detail = append(rep.Detail, cm)
			rep.BySite[c.Site.Key()] += cm.Misses
			rep.Accesses += cm.Count
		}
	}
	if rep != nil {
		rep.Total = total
	}
	return total, nil
}
