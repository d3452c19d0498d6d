// Package expr implements a small exact symbolic expression engine over
// 64-bit integers. It is the algebraic substrate of the cache-miss model:
// loop trip counts, reference instance counts, and stack-distance formulas
// are all values of type Expr, built from integer constants, named symbols
// (loop bounds such as N, tile sizes such as TI), addition, multiplication,
// and exact and ceiling division. A distinguished Inf value
// represents the infinite stack distance of a first-touch reference.
//
// Expressions are immutable. The package canonicalizes polynomial parts into
// a sum-of-monomials normal form so that structurally different but
// algebraically equal polynomial expressions compare equal and print
// identically. Non-polynomial operations (division, and sums or products
// with a non-polynomial operand) are kept as
// opaque nodes whose operands are themselves normalized.
package expr

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kind discriminates the node type of an Expr.
type Kind int

const (
	// KindPoly is a polynomial: a constant, a variable, or any sum of
	// products of those.
	KindPoly Kind = iota
	// KindDiv is integer division (floor) of two subexpressions.
	KindDiv
	// KindCeilDiv is ceiling integer division of two subexpressions.
	KindCeilDiv
	// KindInf is the positive infinity sentinel (first-touch stack
	// distance). Arithmetic with Inf yields Inf.
	KindInf
	// KindSum is a sum whose operands are not all polynomial (for
	// example N*TI + floor(N/TJ)). Purely polynomial sums collapse into
	// KindPoly.
	KindSum
	// KindProd is a product whose operands are not all polynomial.
	KindProd
)

// Expr is an immutable symbolic integer expression.
//
// The zero value of *Expr is not meaningful; construct values with Const,
// Var, Add, Mul, Sub, Div, CeilDiv and Inf.
type Expr struct {
	kind Kind
	// poly holds the canonical monomial form when kind == KindPoly.
	poly poly
	// args holds operands for Div, CeilDiv, Sum, Prod.
	args []*Expr
	// str caches the canonical rendering, used for equality and ordering.
	str string
}

// Env binds symbol names to concrete integer values for evaluation.
type Env map[string]int64

// monomial is a product of variables (with multiplicity), identified by the
// sorted, "*"-joined list of factor names. The empty key is the constant
// monomial.
type poly map[string]int64 // monomial key -> coefficient

// ErrUnbound is returned by Eval when a symbol has no binding in the Env.
type ErrUnbound struct{ Name string }

func (e *ErrUnbound) Error() string { return "expr: unbound symbol " + e.Name }

var (
	infExpr  = &Expr{kind: KindInf, str: "inf"}
	zeroExpr = newPoly(poly{})
	oneExpr  = newPoly(poly{"": 1})
)

// Inf returns the infinity sentinel.
func Inf() *Expr { return infExpr }

// Zero returns the constant 0.
func Zero() *Expr { return zeroExpr }

// One returns the constant 1.
func One() *Expr { return oneExpr }

// Const returns a constant expression.
func Const(v int64) *Expr {
	switch v {
	case 0:
		return zeroExpr
	case 1:
		return oneExpr
	}
	return newPoly(poly{"": v})
}

// Var returns the named symbol as an expression. The name must be non-empty
// and must not contain the characters '*', '+', or whitespace, which are
// reserved by the canonical printer. A symbol renders as its name, so a
// symbol interned before is found by that key without building its
// one-term polynomial again.
func Var(name string) *Expr {
	if name == "" || strings.ContainsAny(name, "*+ \t\n") {
		panic("expr: invalid variable name " + fmt.Sprintf("%q", name))
	}
	if got, ok := internTab.Load(internKey{KindPoly, name}); ok {
		return got.(*Expr)
	}
	return newPoly(poly{name: 1})
}

func newPoly(p poly) *Expr {
	for k, c := range p {
		if c == 0 {
			delete(p, k)
		}
	}
	e := &Expr{kind: KindPoly, poly: p}
	e.str = e.render()
	return intern(e)
}

// Kind reports the node kind of e.
func (e *Expr) Kind() Kind { return e.kind }

// IsInf reports whether e is the infinity sentinel.
func (e *Expr) IsInf() bool { return e.kind == KindInf }

// IsZero reports whether e is the constant zero.
func (e *Expr) IsZero() bool { return e.kind == KindPoly && len(e.poly) == 0 }

// ConstVal reports the constant value of e, if e is a constant polynomial.
func (e *Expr) ConstVal() (int64, bool) {
	if e.kind != KindPoly {
		return 0, false
	}
	switch len(e.poly) {
	case 0:
		return 0, true
	case 1:
		if c, ok := e.poly[""]; ok {
			return c, true
		}
	}
	return 0, false
}

// Equal reports structural equality of the canonical forms of e and o.
// Because every constructor hash-conses its result (intern.go), equal
// canonical forms are the same node and the comparison is a pointer test;
// the rendering comparison remains only as a safety net for nodes of
// distinct kinds that happen to share a rendering (which the intern key
// keeps distinct on purpose).
func (e *Expr) Equal(o *Expr) bool {
	if e == o {
		return true
	}
	if e == nil || o == nil {
		return false
	}
	return e.kind == o.kind && e.str == o.str
}

// String returns the canonical rendering of e. Monomials print in
// lexicographic order, e.g. "TI*TN + 2*TI + 1".
func (e *Expr) String() string { return e.str }

// Vars adds every symbol appearing in e to the set vars.
func (e *Expr) Vars(vars map[string]bool) {
	switch e.kind {
	case KindPoly:
		for key := range e.poly {
			if key == "" {
				continue
			}
			for rest := key; rest != ""; {
				var name string
				name, rest, _ = strings.Cut(rest, "*")
				vars[name] = true
			}
		}
	case KindInf:
	default:
		for _, a := range e.args {
			a.Vars(vars)
		}
	}
}

// HasAnyVar reports whether e mentions any of the given symbol names.
func (e *Expr) HasAnyVar(names map[string]bool) bool {
	vars := map[string]bool{}
	e.Vars(vars)
	for n := range vars {
		if names[n] {
			return true
		}
	}
	return false
}

// Add returns the sum of the given expressions. Polynomial operands are
// merged into canonical form; Inf absorbs everything. The sum of Zero() and
// one other operand is that operand, returned without the merge and intern
// that would yield the same node.
func Add(xs ...*Expr) *Expr {
	if len(xs) == 2 && xs[0] != nil && xs[1] != nil {
		switch {
		case xs[0] == zeroExpr:
			return xs[1]
		case xs[1] == zeroExpr:
			return xs[0]
		}
	}
	acc := poly{}
	var rest []*Expr
	for _, x := range xs {
		if x == nil {
			panic("expr: Add of nil")
		}
		switch x.kind {
		case KindInf:
			return infExpr
		case KindPoly:
			for k, c := range x.poly {
				acc[k] += c
			}
		case KindSum:
			// Flatten nested non-poly sums.
			for _, a := range x.args {
				if a.kind == KindPoly {
					for k, c := range a.poly {
						acc[k] += c
					}
				} else {
					rest = append(rest, a)
				}
			}
		default:
			rest = append(rest, x)
		}
	}
	p := newPoly(acc)
	if len(rest) == 0 {
		return p
	}
	args := rest
	if !p.IsZero() {
		args = append([]*Expr{p}, rest...)
	} else if len(rest) == 1 {
		return rest[0]
	}
	sortArgs(args)
	return newOpaque(KindSum, args)
}

// Sub returns a - b.
func Sub(a, b *Expr) *Expr {
	return Add(a, Mul(Const(-1), b))
}

// Mul returns the product of the given expressions. Products of polynomials
// are expanded into canonical form; Inf absorbs non-zero operands; zero
// annihilates. As in Add, the product of One() and one other operand is
// that operand.
func Mul(xs ...*Expr) *Expr {
	if len(xs) == 2 && xs[0] != nil && xs[1] != nil {
		switch {
		case xs[0] == oneExpr:
			return xs[1]
		case xs[1] == oneExpr:
			return xs[0]
		}
	}
	accum := poly{"": 1}
	var rest []*Expr
	sawInf := false
	for _, x := range xs {
		if x == nil {
			panic("expr: Mul of nil")
		}
		switch x.kind {
		case KindInf:
			sawInf = true
		case KindPoly:
			if len(x.poly) == 0 {
				return zeroExpr
			}
			accum = mulPoly(accum, x.poly)
		case KindProd:
			for _, a := range x.args {
				if a.kind == KindPoly {
					accum = mulPoly(accum, a.poly)
				} else {
					rest = append(rest, a)
				}
			}
		default:
			rest = append(rest, x)
		}
	}
	if sawInf {
		return infExpr
	}
	p := newPoly(accum)
	if len(rest) == 0 {
		return p
	}
	if p.IsZero() {
		return zeroExpr
	}
	args := rest
	if !p.Equal(oneExpr) {
		args = append([]*Expr{p}, rest...)
	} else if len(rest) == 1 {
		return rest[0]
	}
	sortArgs(args)
	return newOpaque(KindProd, args)
}

// Div returns floor(a/b). Constant operands fold; a/1 simplifies to a;
// 0/b simplifies to 0. Division of a polynomial by a single monomial that
// divides every term exactly also folds (e.g. (N*TI)/TI -> N).
func Div(a, b *Expr) *Expr {
	return divLike(KindDiv, a, b)
}

// CeilDiv returns ceil(a/b), folding constants and exact divisions.
func CeilDiv(a, b *Expr) *Expr {
	return divLike(KindCeilDiv, a, b)
}

func divLike(kind Kind, a, b *Expr) *Expr {
	if a.kind == KindInf {
		return infExpr
	}
	if bv, ok := b.ConstVal(); ok {
		if bv == 0 {
			panic("expr: division by constant zero")
		}
		if bv == 1 {
			return a
		}
		if av, ok := a.ConstVal(); ok {
			if kind == KindCeilDiv {
				return Const(ceilDiv64(av, bv))
			}
			return Const(floorDiv64(av, bv))
		}
	}
	if a.IsZero() {
		return zeroExpr
	}
	if q, ok := exactPolyDiv(a, b); ok {
		return q
	}
	return newOpaque(kind, []*Expr{a, b})
}

// exactPolyDiv attempts a/b where a and b are polynomials and b is a single
// monomial dividing every term of a. This keeps expressions like
// (N*TI + TI*TJ)/TI in the simple form N + TJ.
func exactPolyDiv(a, b *Expr) (*Expr, bool) {
	if a.kind != KindPoly || b.kind != KindPoly || len(b.poly) != 1 {
		return nil, false
	}
	var bKey string
	var bCoef int64
	for k, c := range b.poly {
		bKey, bCoef = k, c
	}
	if bCoef == 0 {
		return nil, false
	}
	bFactors := splitKey(bKey)
	out := poly{}
	for k, c := range a.poly {
		if c%bCoef != 0 {
			return nil, false
		}
		rem, ok := removeFactors(splitKey(k), bFactors)
		if !ok {
			return nil, false
		}
		out[joinKey(rem)] += c / bCoef
	}
	return newPoly(out), true
}

func newOpaque(kind Kind, args []*Expr) *Expr {
	e := &Expr{kind: kind, args: args}
	e.str = e.render()
	return intern(e)
}

// Eval evaluates e under env. It returns ErrUnbound if a symbol is missing.
// The infinity sentinel evaluates to math.MaxInt64.
func (e *Expr) Eval(env Env) (int64, error) {
	switch e.kind {
	case KindInf:
		return math.MaxInt64, nil
	case KindPoly:
		var total int64
		for key, coef := range e.poly {
			term := coef
			if key != "" {
				for _, name := range strings.Split(key, "*") {
					v, ok := env[name]
					if !ok {
						return 0, &ErrUnbound{name}
					}
					term *= v
				}
			}
			total += term
		}
		return total, nil
	case KindDiv, KindCeilDiv:
		a, err := e.args[0].Eval(env)
		if err != nil {
			return 0, err
		}
		b, err := e.args[1].Eval(env)
		if err != nil {
			return 0, err
		}
		if b == 0 {
			return 0, fmt.Errorf("expr: division by zero evaluating %s", e)
		}
		if a == math.MaxInt64 {
			return math.MaxInt64, nil
		}
		if e.kind == KindCeilDiv {
			return ceilDiv64(a, b), nil
		}
		return floorDiv64(a, b), nil
	case KindSum:
		var total int64
		for _, a := range e.args {
			v, err := a.Eval(env)
			if err != nil {
				return 0, err
			}
			if v == math.MaxInt64 {
				return math.MaxInt64, nil
			}
			total += v
		}
		return total, nil
	case KindProd:
		total := int64(1)
		for _, a := range e.args {
			v, err := a.Eval(env)
			if err != nil {
				return 0, err
			}
			if v == math.MaxInt64 {
				return math.MaxInt64, nil
			}
			total *= v
		}
		return total, nil
	}
	panic("expr: unknown kind")
}

func mulPoly(a, b poly) poly {
	out := poly{}
	for ka, ca := range a {
		for kb, cb := range b {
			out[mergeKeys(ka, kb)] += ca * cb
		}
	}
	return out
}

func splitKey(k string) []string {
	if k == "" {
		return nil
	}
	return strings.Split(k, "*")
}

func joinKey(parts []string) string {
	sort.Strings(parts)
	return strings.Join(parts, "*")
}

func mergeKeys(a, b string) string {
	parts := append(splitKey(a), splitKey(b)...)
	return joinKey(parts)
}

// removeFactors removes each factor in sub from from (with multiplicity),
// reporting failure if some factor is missing.
func removeFactors(from, sub []string) ([]string, bool) {
	out := append([]string(nil), from...)
	for _, s := range sub {
		found := -1
		for i, f := range out {
			if f == s {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, false
		}
		out = append(out[:found], out[found+1:]...)
	}
	return out, true
}

func floorDiv64(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func ceilDiv64(a, b int64) int64 {
	return -floorDiv64(-a, b)
}

func sortArgs(args []*Expr) {
	sort.Slice(args, func(i, j int) bool { return args[i].str < args[j].str })
}
