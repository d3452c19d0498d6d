package expr

import (
	"math"
	"math/rand"
	"testing"
)

// This file provides sound-but-incomplete symbolic comparisons under the
// assumption that every symbol is a positive integer — which holds for all
// the model's symbols (loop bounds, tile sizes, trip counts). They are used
// to order stack-distance expressions without concrete bindings, e.g. to
// prove that one tiling's distances dominate another's.

// NonNegativeForPositive reports whether e is provably >= 0 whenever every
// symbol is >= 1. The check is sound, not complete: it returns true when
// the polynomial part, rewritten at the lower bound of each monomial,
// cannot be negative, treating opaque nodes conservatively.
func (e *Expr) NonNegativeForPositive() bool {
	switch e.kind {
	case KindInf:
		return true
	case KindPoly:
		// Sum of coefficients where negative monomials are taken at their
		// minimum (each variable = 1) and positive monomials likewise at
		// their minimum (each variable = 1): a lower bound of the value is
		// then the plain coefficient sum only when no positive coefficient
		// multiplies a variable... To stay sound we require: the constant
		// term plus the sum of negative coefficients (at minimum magnitude
		// it is -|c| times at least 1) is >= 0 when each negative monomial
		// is dominated pointwise. The simplest sound rule: all
		// coefficients non-negative, OR every negative monomial's key is
		// also present with a dominating positive coefficient on a
		// superset monomial. We implement the first plus the N*X - X >= 0
		// pattern (a negative monomial whose variables are a subset of a
		// positive monomial's with coefficient at least as large).
		type mono struct {
			key  string
			coef int64
		}
		var negs, poss []mono
		for k, c := range e.poly {
			if c < 0 {
				negs = append(negs, mono{k, c})
			} else if c > 0 {
				poss = append(poss, mono{k, c})
			}
		}
		if len(negs) == 0 {
			return true
		}
		// Try to cover each negative monomial with a distinct share of a
		// positive monomial that contains all its factors.
		remaining := map[string]int64{}
		for _, p := range poss {
			remaining[p.key] = p.coef
		}
		for _, n := range negs {
			covered := false
			for _, p := range poss {
				if remaining[p.key] >= -n.coef && containsFactors(p.key, n.key) {
					remaining[p.key] += n.coef // consume coverage
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	case KindDiv, KindCeilDiv:
		// floor/ceil of nonneg/positive stays nonneg.
		return e.args[0].NonNegativeForPositive() && e.args[1].NonNegativeForPositive()
	case KindSum, KindProd:
		for _, a := range e.args {
			if !a.NonNegativeForPositive() {
				return false
			}
		}
		return true
	}
	return false
}

// GEForPositive reports whether a >= b is provable for all positive integer
// bindings (sound, not complete): it checks a - b when both are polynomial,
// and falls back to structural equality otherwise.
func GEForPositive(a, b *Expr) bool {
	if a.IsInf() {
		return true
	}
	if b.IsInf() {
		return false
	}
	if a.kind == KindPoly && b.kind == KindPoly {
		return Sub(a, b).NonNegativeForPositive()
	}
	return a.Equal(b)
}

// containsFactors reports whether the monomial key `sup` contains every
// factor (with multiplicity) of `sub`.
func containsFactors(sup, sub string) bool {
	_, ok := removeFactors(splitKey(sup), splitKey(sub))
	return ok
}

func TestNonNegativeForPositive(t *testing.T) {
	n, ti := Var("N"), Var("TI")
	cases := []struct {
		e    *Expr
		want bool
	}{
		{Const(0), true},
		{Const(5), true},
		{Const(-1), false},
		{n, true},
		{Mul(n, ti), true},
		{Sub(n, Const(1000)), false}, // N could be 1
		{Sub(Mul(n, ti), ti), true},  // N·TI − TI = TI(N−1) >= 0
		{Sub(Mul(n, ti), n), true},
		{Sub(Mul(n, ti), Mul(Const(2), ti)), false}, // N·TI − 2TI < 0 at N=1
		{Sub(Mul(Const(2), n, ti), Mul(Const(2), ti)), true},
		{Sub(ti, Mul(n, ti)), false},
		{Add(Mul(n, ti), Const(-1)), true}, // N·TI >= 1 for positive ints
		{Inf(), true},
		{Div(Mul(n, ti), ti), true},
	}
	for i, c := range cases {
		if got := c.e.NonNegativeForPositive(); got != c.want {
			t.Errorf("case %d (%s): got %v want %v", i, c.e, got, c.want)
		}
	}
}

// TestNonNegativeSound: whenever the check says yes, random positive
// bindings must agree.
func TestNonNegativeSound(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 300; trial++ {
		e, _ := randExpr(r, 4)
		if !e.NonNegativeForPositive() {
			continue
		}
		for k := 0; k < 30; k++ {
			env := Env{
				"a": int64(1 + r.Intn(9)),
				"b": int64(1 + r.Intn(9)),
				"c": int64(1 + r.Intn(9)),
			}
			v, err := e.Eval(env)
			if err != nil {
				t.Fatal(err)
			}
			if v < 0 {
				t.Fatalf("claimed nonneg but %s = %d at %v", e, v, env)
			}
		}
	}
}

func TestGEForPositive(t *testing.T) {
	n, ti, tj := Var("N"), Var("TI"), Var("TJ")
	if !GEForPositive(Mul(n, ti), ti) {
		t.Error("N·TI >= TI should hold")
	}
	if GEForPositive(ti, Mul(n, ti)) {
		t.Error("TI >= N·TI should not be provable")
	}
	if !GEForPositive(Inf(), Mul(n, ti, tj)) {
		t.Error("inf >= anything")
	}
	if GEForPositive(Mul(n, ti), Inf()) {
		t.Error("finite >= inf should fail")
	}
	// SD dominance example: TI·TN + TN·TJ + TJ >= TN·TJ.
	tn := Var("TN")
	big := Add(Mul(ti, tn), Mul(tn, tj), tj)
	if !GEForPositive(big, Mul(tn, tj)) {
		t.Error("SD dominance failed")
	}
	// Opaque nodes: only equality.
	d := Div(n, ti)
	if !GEForPositive(d, d) {
		t.Error("x >= x for opaque")
	}
	if GEForPositive(d, Div(n, tj)) {
		t.Error("incomparable opaques accepted")
	}
}

// Edge cases around the Inf sentinel: Inf >= Inf must hold (both arms of
// the a/b Inf checks fire, a's wins), and nothing finite dominates Inf.
func TestGEForPositiveInfEdges(t *testing.T) {
	if !GEForPositive(Inf(), Inf()) {
		t.Error("inf >= inf should hold")
	}
	if GEForPositive(Zero(), Inf()) || GEForPositive(Const(math.MaxInt64), Inf()) {
		t.Error("finite constants must not dominate inf")
	}
	if !GEForPositive(Inf(), Zero()) {
		t.Error("inf >= 0 should hold")
	}
}

// Mixed polynomial/division comparisons fall back to structural equality:
// sound-but-incomplete means every true answer must be justified, and
// obviously-true-but-opaque orderings are allowed to come back false.
func TestGEForPositiveMixedPolyDiv(t *testing.T) {
	n, ti := Var("N"), Var("TI")
	d := Div(n, ti)
	// floor(N/TI) <= N pointwise, but the comparison cannot prove it:
	// incomparable kinds fall back to Equal, which is false — sound.
	if GEForPositive(n, d) {
		t.Error("poly vs div must not be proven without polynomial reasoning")
	}
	if GEForPositive(d, n) {
		t.Error("div vs poly must not be proven")
	}
	// Sums mixing polys and divisions: identical structure is provable...
	s := Add(Mul(n, ti), Div(n, ti))
	if !GEForPositive(s, s) {
		t.Error("mixed sum >= itself should hold")
	}
	// ...but a strictly-smaller variant is not (opaque kinds, no Sub).
	s2 := Add(Mul(n, ti), Div(n, Mul(ti, ti)))
	if GEForPositive(s, s2) || GEForPositive(s2, s) {
		t.Error("distinct mixed sums must be incomparable")
	}
	// CeilDiv vs Div of the same operands are distinct nodes.
	if GEForPositive(CeilDiv(n, ti), Div(n, ti)) {
		t.Error("ceil vs floor must not compare equal")
	}
}

// NonNegativeForPositive on division nodes requires both operands
// nonnegative; a possibly-negative numerator poisons the division.
func TestNonNegativeForPositiveDivEdges(t *testing.T) {
	n, ti := Var("N"), Var("TI")
	if !Div(Add(n, Const(1)), ti).NonNegativeForPositive() {
		t.Error("(N+1)/TI should be provably nonnegative")
	}
	if Div(Sub(n, Const(5)), ti).NonNegativeForPositive() {
		t.Error("(N-5)/TI must not be provable")
	}
	if Div(n, Sub(ti, Const(5))).NonNegativeForPositive() {
		t.Error("N/(TI-5) must not be provable")
	}
	if !CeilDiv(Mul(n, ti), Add(ti, Const(1))).NonNegativeForPositive() {
		t.Error("ceil(N*TI/(TI+1)) should be provably nonnegative")
	}
}
