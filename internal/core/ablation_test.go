package core

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/loopir"
)

// TestAblationCarrierCorrection: without the carrier correction, the
// wrap-carried span cost of the untiled matmul drops (A loses the +1
// staircase, C loses the doubling), changing the SD expressions.
func TestAblationCarrierCorrection(t *testing.T) {
	nest := matmulNest(t)
	full, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := AnalyzeWithOptions(nest, Options{CarrierCorrection: false, ComplementRule: true})
	if err != nil {
		t.Fatal(err)
	}
	n := expr.Var("N")
	// Full model: C carried by j has SD 2N+3 (A doubled to 2, B staircase
	// N+1). Bare model: A contributes 1, B contributes N: SD = 2N+1... the
	// exact expressions:
	fullC := findComp(t, full, "S1#2", SelfCarried, "j")
	bareC := findComp(t, bare, "S1#2", SelfCarried, "j")
	wantFull := expr.Add(expr.Mul(expr.Const(2), n), expr.Const(3))
	wantBare := expr.Add(expr.Mul(expr.Const(2), n), expr.Const(1))
	if !fullC.SD.Base.Equal(wantFull) {
		t.Errorf("full C SD = %s want %s", fullC.SD, wantFull)
	}
	if !bareC.SD.Base.Equal(wantBare) {
		t.Errorf("bare C SD = %s want %s", bareC.SD, wantBare)
	}
	// The bare model must under-estimate (or equal) the full model's SDs.
	env := expr.Env{"N": 16}
	for i, c := range full.Components {
		if c.SD.Base.IsInf() {
			continue
		}
		fv, err := c.SD.Base.Eval(env)
		if err != nil {
			t.Fatal(err)
		}
		bv, err := bare.Components[i].SD.Base.Eval(env)
		if err != nil {
			t.Fatal(err)
		}
		if bv > fv {
			t.Errorf("component %d: bare SD %d exceeds full SD %d", i, bv, fv)
		}
	}
}

// TestAblationComplementRule: without the complement rule, the imperfect
// nest's cross-statement components over-count the reused array (suffix +
// prefix summed instead of unified).
func TestAblationComplementRule(t *testing.T) {
	nest := imperfectNest(t)
	full, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := AnalyzeWithOptions(nest, Options{CarrierCorrection: true, ComplementRule: false})
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{"N": 16}
	cFull := findComp(t, full, "S2#0", CrossStmt, "")
	cBare := findComp(t, bare, "S2#0", CrossStmt, "")
	fv, _ := cFull.SD.Eval(env, 0)
	bv, _ := cBare.SD.Eval(env, 0)
	if bv < fv {
		t.Errorf("complement-off SD %d below full-model SD %d (should over-count or tie)", bv, fv)
	}
	// At the top of the free range the over-count is strict for spans with
	// a partial reused-array box on both sides.
	fvHi, _ := cFull.SD.Eval(env, 15)
	bvHi, _ := cBare.SD.Eval(env, 15)
	if bvHi < fvHi {
		t.Errorf("complement-off SD %d below full SD %d at range top", bvHi, fvHi)
	}
}

// TestAblationTailToHeadWrap: the wrap refinement tightens the SD of
// self-reuse whose source lies in an earlier branch (the imperfect nest's
// B-buffer pattern), and must never increase any component's SD.
func TestAblationTailToHeadWrap(t *testing.T) {
	nest := slicedNest(t)
	full, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	if !DefaultOptions().TailToHeadWrap {
		t.Fatal("TailToHeadWrap should be on by default")
	}
	bare, err := AnalyzeWithOptions(nest, Options{CarrierCorrection: true, ComplementRule: true})
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{"N": 16}
	// T@S1's self reuse carried by i: the previous access to the buffer
	// T[k] is in S3 (the last branch of the previous i iteration), so the
	// wrap span (suffix of S3's branch + prefix up to S1) is much shorter
	// than a full i-body iteration (which would include all of A and M).
	fullT := findComp(t, full, "S1#0", SelfCarried, "i")
	bareT := findComp(t, bare, "S1#0", SelfCarried, "i")
	fv, err := fullT.SD.Eval(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	bv, err := bareT.SD.Eval(env, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fv >= bv {
		t.Errorf("wrap SD %d not tighter than body SD %d", fv, bv)
	}
	if fullT.Source.Stmt == nil || fullT.Source.Stmt.Label != "S3" {
		t.Errorf("wrap source = %v, want S3", fullT.Source)
	}
	// Never larger, on any component (evaluate variable SDs at both ends).
	for i := range full.Components {
		fc, bc := full.Components[i], bare.Components[i]
		if fc.SD.Base.IsInf() {
			continue
		}
		for _, pos := range []int64{0, 7} {
			fvv, err1 := fc.SD.Eval(env, pos)
			bvv, err2 := bc.SD.Eval(env, pos)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if fvv > bvv {
				t.Errorf("component %d at a=%d: wrap SD %d exceeds body SD %d", i, pos, fvv, bvv)
			}
		}
	}
}

// slicedNest builds the buffer-recycling nest of examples/custom-nest:
// for i { S1: T[k]=0; S2: T[k] += M[k,j]·A[j,i]; S3: OUT[k,i] += T[k] }.
func slicedNest(t *testing.T) *loopir.Nest {
	t.Helper()
	n := expr.Var("N")
	arrays := []*loopir.Array{
		{Name: "A", Dims: []*expr.Expr{n, n}},
		{Name: "M", Dims: []*expr.Expr{n, n}},
		{Name: "T", Dims: []*expr.Expr{n}},
		{Name: "OUT", Dims: []*expr.Expr{n, n}},
	}
	s1 := &loopir.Stmt{Label: "S1", Refs: []loopir.Ref{
		{Array: "T", Mode: loopir.Write, Subs: []loopir.Subscript{loopir.Idx("k")}},
	}}
	s2 := &loopir.Stmt{Label: "S2", Refs: []loopir.Ref{
		{Array: "M", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("k2"), loopir.Idx("j")}},
		{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("j"), loopir.Idx("i")}},
		{Array: "T", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("k2")}},
	}}
	s3 := &loopir.Stmt{Label: "S3", Refs: []loopir.Ref{
		{Array: "T", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("k3")}},
		{Array: "OUT", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("k3"), loopir.Idx("i")}},
	}}
	nest, err := loopir.NewNest("sliced", arrays, []loopir.Node{
		&loopir.Loop{Index: "i", Trip: n, Body: []loopir.Node{
			&loopir.Loop{Index: "k", Trip: n, Body: []loopir.Node{s1}},
			&loopir.Loop{Index: "j", Trip: n, Body: []loopir.Node{
				&loopir.Loop{Index: "k2", Trip: n, Body: []loopir.Node{s2}},
			}},
			&loopir.Loop{Index: "k3", Trip: n, Body: []loopir.Node{s3}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nest
}

// TestAblationAccuracy quantifies the refinements on the tiled matmul: the
// full model's predictions must be at least as close to exact simulation as
// the ablated model's, summed across cache capacities.
func TestAblationAccuracy(t *testing.T) {
	nest := matmulNest(t)
	full, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := AnalyzeWithOptions(nest, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const N = 20
	env := expr.Env{"N": N}
	watches := []int64{3, 43, 461} // at the SD regime boundaries ±0
	res := simulateMisses(t, nest, env, watches)
	var fullErr, bareErr int64
	for i, c := range watches {
		fp := predictTotal(t, full, env, c)
		bp := predictTotal(t, bare, env, c)
		fd, bd := fp-res.Misses[i], bp-res.Misses[i]
		if fd < 0 {
			fd = -fd
		}
		if bd < 0 {
			bd = -bd
		}
		fullErr += fd
		bareErr += bd
	}
	if fullErr > bareErr {
		t.Errorf("full model total error %d exceeds ablated model %d", fullErr, bareErr)
	}
}
