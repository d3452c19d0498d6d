package expr

import "testing"

// Structurally equal canonical forms must be the same node: hash-consing
// makes pointer identity the equality test on hot paths.
func TestInternPointerIdentity(t *testing.T) {
	a := Add(Mul(Var("N"), Var("TI")), Const(1))
	b := Add(Const(1), Mul(Var("TI"), Var("N")))
	if a != b {
		t.Fatalf("structurally equal expressions are distinct nodes: %p vs %p (%s)", a, b, a)
	}
	c := Add(CeilDiv(Var("N"), Var("TI")), Var("N"))
	d := Add(Var("N"), CeilDiv(Var("N"), Var("TI")))
	if c != d {
		t.Fatalf("commutative opaque sum interned to distinct nodes: %s", c)
	}
}

func TestInternConstIdentity(t *testing.T) {
	if Const(0) != Zero() || Const(1) != One() {
		t.Fatalf("constant singletons not shared")
	}
	if Const(17) != Const(17) {
		t.Fatalf("equal constants interned to distinct nodes")
	}
}

// Var("inf") and Inf() share the rendering "inf" but are different kinds;
// the intern key must keep them distinct.
func TestInternKindDisambiguatesRendering(t *testing.T) {
	v := Var("inf")
	if v == Inf() {
		t.Fatalf("Var(inf) interned onto the Inf sentinel")
	}
	if v.Equal(Inf()) || Inf().Equal(v) {
		t.Fatalf("Var(inf) compares equal to Inf")
	}
	if v.Kind() != KindPoly || !Inf().IsInf() {
		t.Fatalf("kinds wrong: %v %v", v.Kind(), Inf().Kind())
	}
	if v.String() != "inf" || Inf().String() != "inf" {
		t.Fatalf("renderings diverged: %q %q", v, Inf())
	}
}
