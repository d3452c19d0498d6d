package expr_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
)

// kernelExprs returns every expression the analyses of the six built-in
// kernels build and evaluate: loop trips, array extents, and each
// component's count, stack-distance base and slope, free range and
// breakdown sizes.
func kernelExprs(t *testing.T) []*expr.Expr {
	t.Helper()
	var xs []*expr.Expr
	add := func(es ...*expr.Expr) {
		for _, e := range es {
			if e != nil {
				xs = append(xs, e)
			}
		}
	}
	for _, kind := range []string{"matmul", "matmul-naive", "twoindex", "twoindexchain", "fourindex", "ccsd"} {
		nest, _, err := experiments.BuildKernel(kind, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range nest.Loops() {
			add(l.Trip)
		}
		for _, arr := range nest.Arrays {
			add(arr.Dims...)
		}
		for _, c := range a.Components {
			add(c.Count, c.SD.Base, c.SD.Slope, c.FreeRange)
			for _, bc := range c.Breakdown {
				add(bc.Size.Base, bc.Size.Slope)
			}
		}
	}
	return append(xs, expr.Zero(), expr.One(), expr.Inf())
}

// TestUnitFastPaths: Mul with one operand One and Add with one operand Zero
// return the other operand itself, the same node the general path (reached
// here with a third unit operand) returns through hash-consing, so callers
// cannot tell the fast path from the general one. A nil operand still
// panics.
func TestUnitFastPaths(t *testing.T) {
	one, zero := expr.One(), expr.Zero()
	xs := kernelExprs(t)
	for _, x := range xs {
		for _, c := range []struct {
			name string
			got  *expr.Expr
		}{
			{"Mul(1, x)", expr.Mul(one, x)},
			{"Mul(x, 1)", expr.Mul(x, one)},
			{"Add(0, x)", expr.Add(zero, x)},
			{"Add(x, 0)", expr.Add(x, zero)},
			{"Mul(x, 1, 1)", expr.Mul(x, one, one)},
			{"Mul(1, x, 1)", expr.Mul(one, x, one)},
			{"Add(x, 0, 0)", expr.Add(x, zero, zero)},
			{"Add(0, x, 0)", expr.Add(zero, x, zero)},
		} {
			if c.got != x {
				t.Errorf("%s = %s, want the node x = %s", c.name, c.got, x)
			}
		}
	}
	for name, f := range map[string]func(){
		"Mul(nil, 1)": func() { expr.Mul(nil, one) },
		"Mul(1, nil)": func() { expr.Mul(one, nil) },
		"Add(nil, 0)": func() { expr.Add(nil, zero) },
		"Add(0, nil)": func() { expr.Add(zero, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestVarFastPath: Var finds an interned symbol by its name and returns
// the node that building, rendering and interning the symbol returns, for
// every symbol and loop index of the six kernels, for names interned by no
// one before, and for names that render like other nodes (a constant, the
// infinity sentinel). An invalid name still panics.
func TestVarFastPath(t *testing.T) {
	names := []string{"fresh_symbol_a", "fresh_symbol_b", "2", "-1", "inf", "N"}
	for _, kind := range []string{"matmul", "matmul-naive", "twoindex", "twoindexchain", "fourindex", "ccsd"} {
		nest, _, err := experiments.BuildKernel(kind, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, nest.SymbolNames()...)
		for _, l := range nest.Loops() {
			names = append(names, l.Index)
		}
	}
	expr.Const(2)
	expr.Const(-1)
	for i, name := range names {
		// Half the names are built first, half looked up first.
		var fast, slow *expr.Expr
		if i%2 == 0 {
			fast, slow = expr.Var(name), expr.VarSlow(name)
		} else {
			slow = expr.VarSlow(name)
			fast = expr.Var(name)
		}
		if fast != slow {
			t.Errorf("Var(%q) = %p %s, the built node is %p %s", name, fast, fast, slow, slow)
		}
		if again := expr.Var(name); again != fast {
			t.Errorf("Var(%q) returned two nodes", name)
		}
	}
	for _, bad := range []string{"", "a*b", "a+b", "a b", "a\tb", "a\nb"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Var(%q) did not panic", bad)
				}
			}()
			expr.Var(bad)
		}()
	}
}
