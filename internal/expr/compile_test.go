package expr

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestCompilePolyMatchesEval(t *testing.T) {
	n, ti, tj := Var("N"), Var("TI"), Var("TJ")
	e := Add(Mul(n, ti), Mul(Const(3), ti, tj), Mul(Const(-2), n), Const(7))
	env := Env{"N": 11, "TI": 5, "TJ": 4}

	tab := NewSymTab()
	p := Compile(e, tab)
	want := e.MustEval(env)
	got, err := p.Eval(tab.FrameOf(env))
	if err != nil {
		t.Fatalf("compiled eval: %v", err)
	}
	if got != want {
		t.Fatalf("compiled %s = %d, tree = %d", e, got, want)
	}
}

func TestCompileNil(t *testing.T) {
	if p := Compile(nil, NewSymTab()); p != nil {
		t.Fatalf("Compile(nil) = %v, want nil", p)
	}
}

func TestCompileDivisionByZero(t *testing.T) {
	e := Div(Var("N"), Sub(Var("D"), Const(1)))
	tab := NewSymTab()
	p := Compile(e, tab)
	f := tab.FrameOf(Env{"N": 10, "D": 1})
	_, cErr := p.Eval(f)
	_, tErr := e.Eval(Env{"N": 10, "D": 1})
	if cErr == nil || tErr == nil {
		t.Fatalf("expected division-by-zero from both, got compiled=%v tree=%v", cErr, tErr)
	}
	if cErr.Error() != tErr.Error() {
		t.Fatalf("error mismatch:\ncompiled: %v\ntree:     %v", cErr, tErr)
	}
	if !strings.Contains(cErr.Error(), "division by zero evaluating") {
		t.Fatalf("unexpected error text %q", cErr)
	}
}

func TestCompileUnbound(t *testing.T) {
	e := Add(Var("N"), Var("M"))
	tab := NewSymTab()
	p := Compile(e, tab)
	f := tab.FrameOf(Env{"N": 4})
	_, err := p.Eval(f)
	var ub *ErrUnbound
	if !errors.As(err, &ub) {
		t.Fatalf("expected *ErrUnbound, got %v", err)
	}
	if ub.Name != "M" {
		t.Fatalf("unbound name = %q, want M", ub.Name)
	}
}

func TestCompileInfPropagation(t *testing.T) {
	tab := NewSymTab()
	cases := []*Expr{
		Inf(),
		Add(Inf(), Var("N")),
		Mul(Inf(), Var("N")),
		Div(Inf(), Var("N")),
		CeilDiv(Inf(), Var("N")),
		Add(Div(Var("N"), Var("T")), Inf()),
	}
	env := Env{"N": 9, "T": 2}
	for _, e := range cases {
		p := Compile(e, tab)
		want := e.MustEval(env)
		got, err := p.Eval(tab.FrameOf(env))
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if got != want {
			t.Fatalf("%s: compiled %d, tree %d", e, got, want)
		}
	}
}

// The tree walk short-circuits sums and products at the first MaxInt64
// operand, never evaluating — and never erroring on — later operands. The
// compiled form must reproduce that control flow, not just the value.
func TestCompileSumShortCircuitSkipsLaterErrors(t *testing.T) {
	// Inf folds at construction (Add/Mul absorb it), so build a Sum/Prod
	// whose first operand *evaluates* to MaxInt64 at runtime — a variable
	// bound to MaxInt64 — and whose second operand divides by zero. The
	// sorted canonical order puts "HUGE" before "floor(...)", so the tree
	// walk hits MaxInt64 first and never sees the division.
	big := Var("HUGE")
	boom := Div(Var("N"), Sub(Var("Z"), Var("Z2"))) // zero denominator when Z==Z2
	for _, mk := range []func() *Expr{
		func() *Expr { return Add(big, boom) },
		func() *Expr { return Mul(big, boom) },
	} {
		e := mk()
		if e.Kind() != KindSum && e.Kind() != KindProd {
			t.Fatalf("test expression folded to %v; want opaque sum/prod", e.Kind())
		}
		env := Env{"HUGE": math.MaxInt64, "N": 5, "Z": 2, "Z2": 2}
		want, tErr := e.Eval(env)
		if tErr != nil {
			t.Fatalf("tree eval of %s errored: %v (short-circuit broken in tree walk?)", e, tErr)
		}
		if want != math.MaxInt64 {
			t.Fatalf("tree eval of %s = %d, want MaxInt64", e, want)
		}
		tab := NewSymTab()
		p := Compile(e, tab)
		got, cErr := p.Eval(tab.FrameOf(env))
		if cErr != nil {
			t.Fatalf("compiled eval of %s errored: %v; tree short-circuited", e, cErr)
		}
		if got != want {
			t.Fatalf("compiled %s = %d, tree = %d", e, got, want)
		}
	}
}

func TestCompileSumLaterOperandInf(t *testing.T) {
	// MaxInt64 arriving in a non-first operand must squash the accumulator.
	// "floor(N / T)" sorts before "floor(ZBIG / P)", so the huge value is
	// the second operand of the canonical sum.
	big := Div(Var("ZBIG"), Var("P"))
	e := Add(Div(Var("N"), Var("T")), big)
	if e.Kind() != KindSum {
		t.Fatalf("expression folded to %v; want KindSum", e.Kind())
	}
	env := Env{"N": 12, "T": 5, "ZBIG": math.MaxInt64, "P": 1}
	tab := NewSymTab()
	p := Compile(e, tab)
	want := e.MustEval(env)
	got, err := p.Eval(tab.FrameOf(env))
	if err != nil {
		t.Fatalf("compiled: %v", err)
	}
	if got != want || got != math.MaxInt64 {
		t.Fatalf("compiled %s = %d, tree = %d, want MaxInt64", e, got, want)
	}
}

func TestCompileFrameMismatchPanics(t *testing.T) {
	p := Compile(Var("N"), NewSymTab())
	other := NewSymTab().NewFrame()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on frame from a different SymTab")
		}
	}()
	p.Eval(other)
}

func TestCompileEvalEnvAdapter(t *testing.T) {
	e := Add(Mul(Var("N"), Var("N")), CeilDiv(Var("N"), Const(3)))
	tab := NewSymTab()
	p := Compile(e, tab)
	env := Env{"N": 10}
	got, err := p.Eval(tab.FrameOf(env))
	if err != nil {
		t.Fatal(err)
	}
	if want := e.MustEval(env); got != want {
		t.Fatalf("Eval(FrameOf(env)) = %d, want %d", got, want)
	}
}

func TestCompiledEvalAllocFree(t *testing.T) {
	n, ti, tj := Var("N"), Var("TI"), Var("TJ")
	e := Add(Mul(n, ti), Mul(ti, tj), Const(1), CeilDiv(Mul(n, n), tj))
	tab := NewSymTab()
	p := Compile(e, tab)
	f := tab.NewFrame()
	f.Bind(Env{"N": 64, "TI": 8, "TJ": 4})
	if _, err := p.Eval(f); err != nil { // warm the scratch stack
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Eval(f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("compiled eval allocates %.1f objects/op, want 0", allocs)
	}
}

func TestProgramAccessors(t *testing.T) {
	e := Add(Var("N"), Const(1))
	tab := NewSymTab()
	p := Compile(e, tab)
	if p.tab != tab {
		t.Fatalf("program does not record its symbol table")
	}
	if _, err := p.Eval(tab.FrameOf(Env{"N": 4})); err != nil {
		t.Fatal(err)
	}
}
