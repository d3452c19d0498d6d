package loopir

import (
	"testing"

	"repro/internal/expr"
)

func TestFuseAdjacentSimple(t *testing.T) {
	n := expr.Var("N")
	arrays := []*Array{
		{Name: "X", Dims: []*expr.Expr{n}},
		{Name: "Y", Dims: []*expr.Expr{n}},
	}
	// for i { X[i]=0 } ; for i { Y[i]=0 }  →  for i { X[i]=0; Y[i]=0 }
	nest, err := NewNest("two", arrays, []Node{
		&Loop{Index: "i", Trip: n, Body: []Node{
			&Stmt{Label: "S1", Refs: []Ref{{Array: "X", Mode: Write, Subs: []Subscript{Idx("i")}}}},
		}},
		&Loop{Index: "i", Trip: n, Body: []Node{
			&Stmt{Label: "S2", Refs: []Ref{{Array: "Y", Mode: Write, Subs: []Subscript{Idx("i")}}}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fused, _, err := FuseLegal(nest)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Loops()) != 1 {
		t.Fatalf("fused has %d loops, want 1:\n%s", len(fused.Loops()), fused)
	}
	if len(fused.Stmts()) != 2 {
		t.Fatalf("statements lost: %d", len(fused.Stmts()))
	}
	// Original untouched.
	if len(nest.Loops()) != 2 {
		t.Fatal("original nest mutated")
	}
}

func TestFuseAdjacentNested(t *testing.T) {
	n := expr.Var("N")
	arrays := []*Array{
		{Name: "X", Dims: []*expr.Expr{n, n}},
		{Name: "Y", Dims: []*expr.Expr{n, n}},
	}
	// for i { for j {X} } ; for i { for j {Y} } fuses to for i { for j {X; Y} }
	mk := func(arr, label string) Node {
		return &Loop{Index: "i", Trip: n, Body: []Node{
			&Loop{Index: "j", Trip: n, Body: []Node{
				&Stmt{Label: label, Refs: []Ref{{Array: arr, Mode: Write, Subs: []Subscript{Idx("i"), Idx("j")}}}},
			}},
		}}
	}
	nest, err := NewNest("nested", arrays, []Node{mk("X", "S1"), mk("Y", "S2")})
	if err != nil {
		t.Fatal(err)
	}
	fused, _, err := FuseLegal(nest)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Loops()) != 2 {
		t.Fatalf("want fully fused (2 loops), got %d:\n%s", len(fused.Loops()), fused)
	}
}

func TestFuseAdjacentRespectsMismatch(t *testing.T) {
	n, m := expr.Var("N"), expr.Var("M")
	arrays := []*Array{
		{Name: "X", Dims: []*expr.Expr{n}},
		{Name: "Y", Dims: []*expr.Expr{m}},
	}
	// Same trip but different index names: no fusion (the IR requires
	// same-named siblings to share trips, so a name mismatch is the only
	// valid way adjacent loops can be unfusable).
	nest, err := NewNest("mismatch", arrays, []Node{
		&Loop{Index: "i", Trip: n, Body: []Node{
			&Stmt{Refs: []Ref{{Array: "X", Mode: Write, Subs: []Subscript{Idx("i")}}}},
		}},
		&Loop{Index: "i2", Trip: n, Body: []Node{
			&Stmt{Refs: []Ref{{Array: "X", Mode: Update, Subs: []Subscript{Idx("i2")}}}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fused, _, err := FuseLegal(nest)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused.Loops()) != 2 {
		t.Fatalf("different index names must not fuse: %d loops", len(fused.Loops()))
	}
	// Non-adjacent same loops (statement in between at top level) do not
	// exist in this IR (top level holds loops and statements), but a
	// differently named loop blocks fusion:
	nest2, err := NewNest("blocked", arrays, []Node{
		&Loop{Index: "i", Trip: n, Body: []Node{
			&Stmt{Refs: []Ref{{Array: "X", Mode: Write, Subs: []Subscript{Idx("i")}}}},
		}},
		&Loop{Index: "k", Trip: m, Body: []Node{
			&Stmt{Refs: []Ref{{Array: "Y", Mode: Write, Subs: []Subscript{Idx("k")}}}},
		}},
		&Loop{Index: "i", Trip: n, Body: []Node{
			&Stmt{Refs: []Ref{{Array: "X", Mode: Update, Subs: []Subscript{Idx("i")}}}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	fused2, _, err := FuseLegal(nest2)
	if err != nil {
		t.Fatal(err)
	}
	if len(fused2.Loops()) != 3 {
		t.Fatalf("non-adjacent loops fused: %d", len(fused2.Loops()))
	}
}
