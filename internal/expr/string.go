package expr

import (
	"sort"
	"strconv"
	"strings"
)

// render produces the canonical textual form of an expression. The form is
// deterministic: polynomials print monomials in lexicographic key order with
// explicit coefficients, and opaque nodes print with a fixed operator
// spelling and sorted (where commutative) operands. Equal canonical strings
// imply algebraically equal expressions for the polynomial fragment.
func (e *Expr) render() string {
	switch e.kind {
	case KindInf:
		return "inf"
	case KindPoly:
		return renderPoly(e.poly)
	case KindDiv:
		return "floor(" + e.args[0].str + " / " + e.args[1].str + ")"
	case KindCeilDiv:
		return "ceil(" + e.args[0].str + " / " + e.args[1].str + ")"
	case KindSum:
		parts := make([]string, len(e.args))
		for i, a := range e.args {
			parts[i] = maybeParen(a)
		}
		return strings.Join(parts, " + ")
	case KindProd:
		parts := make([]string, len(e.args))
		for i, a := range e.args {
			parts[i] = maybeParen(a)
		}
		return strings.Join(parts, "*")
	}
	panic("expr: unknown kind")
}

func maybeParen(a *Expr) string {
	if a.kind == KindSum || (a.kind == KindPoly && len(a.poly) > 1) {
		return "(" + a.str + ")"
	}
	return a.str
}

func renderPoly(p poly) string {
	if len(p) == 0 {
		return "0"
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	// Variables first (lexicographic), constant term last.
	sort.Slice(keys, func(i, j int) bool {
		if (keys[i] == "") != (keys[j] == "") {
			return keys[j] == ""
		}
		return keys[i] < keys[j]
	})
	var b strings.Builder
	for i, k := range keys {
		c := p[k]
		if i == 0 {
			if c < 0 {
				b.WriteString("-")
				c = -c
			}
		} else {
			if c < 0 {
				b.WriteString(" - ")
				c = -c
			} else {
				b.WriteString(" + ")
			}
		}
		switch {
		case k == "":
			b.WriteString(strconv.FormatInt(c, 10))
		case c == 1:
			b.WriteString(k)
		default:
			b.WriteString(strconv.FormatInt(c, 10))
			b.WriteString("*")
			b.WriteString(k)
		}
	}
	return b.String()
}
