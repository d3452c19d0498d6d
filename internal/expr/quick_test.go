package expr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randExpr builds a random expression over the symbols a, b, c with small
// integer constants, together with a direct evaluator over int64 so that the
// symbolic engine can be cross-checked against straightforward arithmetic.
func randExpr(r *rand.Rand, depth int) (*Expr, func(a, b, c int64) int64) {
	if depth == 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			v := int64(r.Intn(7) - 3)
			return Const(v), func(_, _, _ int64) int64 { return v }
		case 1:
			return Var("a"), func(a, _, _ int64) int64 { return a }
		case 2:
			return Var("b"), func(_, b, _ int64) int64 { return b }
		default:
			return Var("c"), func(_, _, c int64) int64 { return c }
		}
	}
	l, lf := randExpr(r, depth-1)
	rr, rf := randExpr(r, depth-1)
	switch r.Intn(3) {
	case 0:
		return Add(l, rr), func(a, b, c int64) int64 { return lf(a, b, c) + rf(a, b, c) }
	case 1:
		return Sub(l, rr), func(a, b, c int64) int64 { return lf(a, b, c) - rf(a, b, c) }
	default:
		return Mul(l, rr), func(a, b, c int64) int64 { return lf(a, b, c) * rf(a, b, c) }
	}
}

// TestQuickEvalMatchesDirect checks that symbolic construction plus Eval is
// observationally identical to direct integer arithmetic, no matter what
// simplifications the constructors applied.
func TestQuickEvalMatchesDirect(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(a, b, c int8) bool {
		e, direct := randExpr(r, 4)
		env := Env{"a": int64(a), "b": int64(b), "c": int64(c)}
		got, err := e.Eval(env)
		if err != nil {
			return false
		}
		return got == direct(int64(a), int64(b), int64(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCanonicalStringIsEvalInvariant: two random expressions with the
// same canonical string must evaluate identically on random environments.
func TestQuickCanonicalStringIsEvalInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	byStr := map[string]*Expr{}
	for i := 0; i < 400; i++ {
		e, _ := randExpr(r, 4)
		if prev, ok := byStr[e.String()]; ok {
			for j := 0; j < 20; j++ {
				env := Env{
					"a": int64(r.Intn(11) - 5),
					"b": int64(r.Intn(11) - 5),
					"c": int64(r.Intn(11) - 5),
				}
				v1, err1 := e.Eval(env)
				v2, err2 := prev.Eval(env)
				if err1 != nil || err2 != nil || v1 != v2 {
					t.Fatalf("same canonical string %q but eval %d vs %d", e, v1, v2)
				}
			}
		} else {
			byStr[e.String()] = e
		}
	}
}

// TestQuickAddCommutesAssociates exercises the polynomial normal form.
func TestQuickAddCommutesAssociates(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		x, _ := randExpr(r, 3)
		y, _ := randExpr(r, 3)
		z, _ := randExpr(r, 3)
		if !Add(x, y).Equal(Add(y, x)) {
			t.Fatalf("Add not commutative for %s, %s", x, y)
		}
		if !Add(Add(x, y), z).Equal(Add(x, Add(y, z))) {
			t.Fatalf("Add not associative for %s, %s, %s", x, y, z)
		}
		if !Mul(x, y).Equal(Mul(y, x)) {
			t.Fatalf("Mul not commutative for %s, %s", x, y)
		}
	}
}

// TestQuickDistributivity checks x*(y+z) == x*y + x*z for polynomial-only
// expressions (opaque min/max nodes do not distribute symbolically, so this
// generator avoids them).
func TestQuickDistributivity(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var polyExpr func(depth int) *Expr
	polyExpr = func(depth int) *Expr {
		if depth == 0 || r.Intn(3) == 0 {
			switch r.Intn(3) {
			case 0:
				return Const(int64(r.Intn(5) - 2))
			case 1:
				return Var("a")
			default:
				return Var("b")
			}
		}
		if r.Intn(2) == 0 {
			return Add(polyExpr(depth-1), polyExpr(depth-1))
		}
		return Mul(polyExpr(depth-1), polyExpr(depth-1))
	}
	for i := 0; i < 300; i++ {
		x, y, z := polyExpr(3), polyExpr(3), polyExpr(3)
		l := Mul(x, Add(y, z))
		rr := Add(Mul(x, y), Mul(x, z))
		if !l.Equal(rr) {
			t.Fatalf("distributivity failed: %s vs %s", l, rr)
		}
	}
}
