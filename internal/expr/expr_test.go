package expr

import (
	"math"
	"strings"
	"testing"
)

func TestConstFolding(t *testing.T) {
	cases := []struct {
		got  *Expr
		want int64
	}{
		{Add(Const(2), Const(3)), 5},
		{Mul(Const(2), Const(3), Const(4)), 24},
		{Sub(Const(2), Const(5)), -3},
		{Div(Const(7), Const(2)), 3},
		{Div(Const(-7), Const(2)), -4},
		{CeilDiv(Const(7), Const(2)), 4},
		{CeilDiv(Const(-7), Const(2)), -3},
		{CeilDiv(Const(8), Const(2)), 4},
		{Mul(Const(0), Var("N")), 0},
		{Mul(Const(1), Const(9)), 9},
	}
	for i, c := range cases {
		v, ok := c.got.ConstVal()
		if !ok {
			t.Fatalf("case %d: %s did not fold to a constant", i, c.got)
		}
		if v != c.want {
			t.Errorf("case %d: got %d want %d", i, v, c.want)
		}
	}
}

func TestCanonicalEquality(t *testing.T) {
	n, ti, tj := Var("N"), Var("TI"), Var("TJ")
	a := Add(Mul(n, ti), Mul(ti, tj), Const(1))
	b := Add(Const(1), Mul(tj, ti), Mul(ti, n))
	if !a.Equal(b) {
		t.Fatalf("expected %s == %s", a, b)
	}
	c := Add(Mul(n, ti), Mul(ti, tj))
	if a.Equal(c) {
		t.Fatalf("expected %s != %s", a, c)
	}
	// (N+1)*(N-1) == N*N - 1 after expansion.
	l := Mul(Add(n, Const(1)), Sub(n, Const(1)))
	r := Sub(Mul(n, n), Const(1))
	if !l.Equal(r) {
		t.Fatalf("expected %s == %s", l, r)
	}
}

func TestAddCancellation(t *testing.T) {
	n := Var("N")
	e := Sub(Mul(Const(3), n), Mul(Const(3), n))
	if !e.IsZero() {
		t.Fatalf("3N - 3N = %s, want 0", e)
	}
}

func TestExactPolyDiv(t *testing.T) {
	n, ti, tj := Var("N"), Var("TI"), Var("TJ")
	q := Div(Add(Mul(n, ti), Mul(ti, tj)), ti)
	want := Add(n, tj)
	if !q.Equal(want) {
		t.Fatalf("got %s want %s", q, want)
	}
	// Non-exact division stays opaque but evaluates correctly.
	d := Div(n, ti)
	if d.Kind() != KindDiv {
		t.Fatalf("N/TI should stay a Div node, got %v", d.Kind())
	}
	v, err := d.Eval(Env{"N": 100, "TI": 32})
	if err != nil || v != 3 {
		t.Fatalf("Eval(N/TI)=%d,%v want 3", v, err)
	}
	cd := CeilDiv(n, ti)
	v, err = cd.Eval(Env{"N": 100, "TI": 32})
	if err != nil || v != 4 {
		t.Fatalf("Eval(ceil(N/TI))=%d,%v want 4", v, err)
	}
}

func TestEvalPolynomial(t *testing.T) {
	n, ti := Var("N"), Var("TI")
	e := Add(Mul(n, n, ti), Mul(Const(-2), ti), Const(7))
	v, err := e.Eval(Env{"N": 10, "TI": 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(10*10*3 - 2*3 + 7); v != want {
		t.Fatalf("got %d want %d", v, want)
	}
}

func TestEvalUnbound(t *testing.T) {
	e := Var("Q")
	if _, err := e.Eval(Env{}); err == nil {
		t.Fatal("expected unbound error")
	} else if ub, ok := err.(*ErrUnbound); !ok || ub.Name != "Q" {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestInfPropagation(t *testing.T) {
	if !Add(Const(1), Inf()).IsInf() {
		t.Error("1 + inf should be inf")
	}
	if !Mul(Var("N"), Inf()).IsInf() {
		t.Error("N * inf should be inf")
	}
	v, err := Inf().Eval(Env{})
	if err != nil || v != math.MaxInt64 {
		t.Fatalf("inf eval = %d, %v", v, err)
	}
	if !Div(Inf(), Const(2)).IsInf() {
		t.Error("inf / 2 should be inf")
	}
}

func TestVars(t *testing.T) {
	e := Add(Mul(Var("N"), Var("TI")), Div(Var("M"), Var("TK")))
	vars := map[string]bool{}
	e.Vars(vars)
	for _, want := range []string{"N", "TI", "M", "TK"} {
		if !vars[want] {
			t.Errorf("missing var %s in %v", want, vars)
		}
	}
	if len(vars) != 4 {
		t.Errorf("got %d vars, want 4", len(vars))
	}
	if !e.HasAnyVar(map[string]bool{"M": true}) {
		t.Error("HasAnyVar(M) should be true")
	}
	if e.HasAnyVar(map[string]bool{"ZZ": true}) {
		t.Error("HasAnyVar(ZZ) should be false")
	}
}

func TestStringDeterministic(t *testing.T) {
	a := Add(Var("B"), Var("A"), Const(2))
	if a.String() != "A + B + 2" {
		t.Fatalf("got %q", a.String())
	}
	m := Mul(Var("B"), Var("A"))
	if m.String() != "A*B" {
		t.Fatalf("got %q", m.String())
	}
	neg := Sub(Var("A"), Mul(Const(2), Var("B")))
	if neg.String() != "A - 2*B" {
		t.Fatalf("got %q", neg.String())
	}
}

func TestMixedOpaqueSum(t *testing.T) {
	n, ti := Var("N"), Var("TI")
	e := Add(Mul(n, ti), Div(n, ti))
	v, err := e.Eval(Env{"N": 10, "TI": 4})
	if err != nil {
		t.Fatal(err)
	}
	if v != 10*4+2 {
		t.Fatalf("got %d", v)
	}
	if !strings.Contains(e.String(), "floor(") {
		t.Fatalf("rendering lost div: %s", e)
	}
	p := Mul(Div(n, ti), ti)
	v, err = p.Eval(Env{"N": 10, "TI": 4})
	if err != nil || v != 8 {
		t.Fatalf("prod eval got %d %v", v, err)
	}
}

func TestInvalidVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid var name")
		}
	}()
	Var("a*b")
}

func TestDivByZeroEval(t *testing.T) {
	e := Div(Var("N"), Var("T"))
	if _, err := e.Eval(Env{"N": 4, "T": 0}); err == nil {
		t.Fatal("expected division-by-zero error")
	}
}

// MustEval evaluates e and panics on error. It is intended for callers that
// have already validated the environment (e.g. benchmark tables).
func (e *Expr) MustEval(env Env) int64 {
	v, err := e.Eval(env)
	if err != nil {
		panic(err)
	}
	return v
}
