package loopir

import (
	"strings"
	"testing"

	"repro/internal/expr"
)

// simpleMatmul builds an untiled i-j-k matrix multiplication nest.
func simpleMatmul(t *testing.T) *Nest {
	t.Helper()
	n := expr.Var("N")
	stmt := &Stmt{
		Label: "S1",
		Flops: 2,
		Refs: []Ref{
			{Array: "A", Mode: Read, Subs: []Subscript{Idx("i"), Idx("j")}},
			{Array: "B", Mode: Read, Subs: []Subscript{Idx("j"), Idx("k")}},
			{Array: "C", Mode: Update, Subs: []Subscript{Idx("i"), Idx("k")}},
		},
	}
	nest, err := BuildPerfect(PerfectNestSpec{
		Name: "matmul",
		Arrays: []*Array{
			{Name: "A", Dims: []*expr.Expr{n, n}},
			{Name: "B", Dims: []*expr.Expr{n, n}},
			{Name: "C", Dims: []*expr.Expr{n, n}},
		},
		Indices: []string{"i", "j", "k"},
		Trips:   []*expr.Expr{n, n, n},
		Stmt:    stmt,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nest
}

func TestBuildPerfectStructure(t *testing.T) {
	nest := simpleMatmul(t)
	if got := len(nest.Loops()); got != 3 {
		t.Fatalf("got %d loops, want 3", got)
	}
	if got := len(nest.Stmts()); got != 1 {
		t.Fatalf("got %d stmts, want 1", got)
	}
	s := nest.Stmts()[0]
	encl := nest.Enclosing(s)
	if len(encl) != 3 || encl[0].Index != "i" || encl[2].Index != "k" {
		t.Fatalf("bad enclosing loops %v", encl)
	}
	if nest.Parent(s) != encl[2] {
		t.Fatal("parent of stmt should be the k loop")
	}
	if nest.Parent(encl[0]) != nil {
		t.Fatal("outermost loop should have nil parent")
	}
}

func TestAppearingLoops(t *testing.T) {
	nest := simpleMatmul(t)
	s := nest.Stmts()[0]
	app, non := nest.AppearingLoops(s, &s.Refs[0]) // A[i,j]
	if len(app) != 2 || app[0].Index != "i" || app[1].Index != "j" {
		t.Fatalf("A appearing = %v", app)
	}
	if len(non) != 1 || non[0].Index != "k" {
		t.Fatalf("A non-appearing = %v", non)
	}
	app, non = nest.AppearingLoops(s, &s.Refs[2]) // C[i,k]
	if len(app) != 2 || app[0].Index != "i" || app[1].Index != "k" {
		t.Fatalf("C appearing = %v", app)
	}
	if len(non) != 1 || non[0].Index != "j" {
		t.Fatalf("C non-appearing = %v", non)
	}
}

func TestTilePerfect(t *testing.T) {
	n := expr.Var("N")
	base := PerfectNestSpec{
		Name: "matmul",
		Arrays: []*Array{
			{Name: "A", Dims: []*expr.Expr{n, n}},
			{Name: "B", Dims: []*expr.Expr{n, n}},
			{Name: "C", Dims: []*expr.Expr{n, n}},
		},
		Indices: []string{"i", "j", "k"},
		Trips:   []*expr.Expr{n, n, n},
		Stmt: &Stmt{
			Label: "S1",
			Refs: []Ref{
				{Array: "A", Mode: Read, Subs: []Subscript{Idx("i"), Idx("j")}},
				{Array: "B", Mode: Read, Subs: []Subscript{Idx("j"), Idx("k")}},
				{Array: "C", Mode: Update, Subs: []Subscript{Idx("i"), Idx("k")}},
			},
		},
	}
	tiles := []TileSpec{
		DefaultTileSpec("i", n),
		DefaultTileSpec("j", n),
		DefaultTileSpec("k", n),
	}
	nest, err := TilePerfect(base, tiles)
	if err != nil {
		t.Fatal(err)
	}
	loops := nest.Loops()
	if len(loops) != 6 {
		t.Fatalf("got %d loops want 6", len(loops))
	}
	wantOrder := []string{"iT", "jT", "kT", "iI", "jI", "kI"}
	for i, l := range loops {
		if l.Index != wantOrder[i] {
			t.Fatalf("loop %d = %s want %s", i, l.Index, wantOrder[i])
		}
	}
	// Intra loop trips are the tile symbols; tile loop trips are ceil(N/T).
	if !loops[3].Trip.Equal(expr.Var("TI")) {
		t.Fatalf("iI trip = %s", loops[3].Trip)
	}
	if loops[0].Trip.Kind() != expr.KindCeilDiv {
		t.Fatalf("iT trip = %s", loops[0].Trip)
	}
	// Subscripts became tile pairs.
	s := nest.Stmts()[0]
	a := s.Refs[0]
	if len(a.Subs[0].Terms) != 2 || a.Subs[0].Terms[0].Index != "iT" || a.Subs[0].Terms[1].Index != "iI" {
		t.Fatalf("A dim0 subscript = %v", a.Subs[0])
	}
	if !a.Subs[0].Terms[0].Stride.Equal(expr.Var("TI")) {
		t.Fatalf("A dim0 tile stride = %v", a.Subs[0].Terms[0].Stride)
	}
	// Environment with exact division validates.
	env := expr.Env{"N": 64, "TI": 16, "TJ": 8, "TK": 32}
	if err := nest.ValidateEnv(env); err != nil {
		t.Fatal(err)
	}
}

func TestValidationErrors(t *testing.T) {
	n := expr.Var("N")
	arrays := []*Array{{Name: "A", Dims: []*expr.Expr{n}}}
	// Out-of-scope index.
	_, err := NewNest("bad", arrays, []Node{
		&Loop{Index: "i", Trip: n, Body: []Node{
			&Stmt{Refs: []Ref{{Array: "A", Subs: []Subscript{Idx("z")}}}},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "not in scope") {
		t.Fatalf("want out-of-scope error, got %v", err)
	}
	// Undeclared array.
	_, err = NewNest("bad2", arrays, []Node{
		&Loop{Index: "i", Trip: n, Body: []Node{
			&Stmt{Refs: []Ref{{Array: "Q", Subs: []Subscript{Idx("i")}}}},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("want undeclared-array error, got %v", err)
	}
	// Wrong dimensionality.
	_, err = NewNest("bad3", arrays, []Node{
		&Loop{Index: "i", Trip: n, Body: []Node{
			&Stmt{Refs: []Ref{{Array: "A", Subs: []Subscript{Idx("i"), Idx("i")}}}},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "subscripts") {
		t.Fatalf("want dimensionality error, got %v", err)
	}
	// Duplicate loop index nested within itself (shadowing).
	_, err = NewNest("bad4", arrays, []Node{
		&Loop{Index: "i", Trip: n, Body: []Node{
			&Loop{Index: "i", Trip: n, Body: []Node{
				&Stmt{Refs: []Ref{{Array: "A", Subs: []Subscript{Idx("i")}}}},
			}},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate loop index") {
		t.Fatalf("want duplicate-index error, got %v", err)
	}
	// Sibling loops with the same name and equal trips are allowed...
	_, err = NewNest("ok-dup", arrays, []Node{
		&Loop{Index: "o", Trip: n, Body: []Node{
			&Loop{Index: "i", Trip: n, Body: []Node{
				&Stmt{Refs: []Ref{{Array: "A", Subs: []Subscript{Idx("i")}}}},
			}},
			&Loop{Index: "i", Trip: n, Body: []Node{
				&Stmt{Refs: []Ref{{Array: "A", Subs: []Subscript{Idx("i")}}}},
			}},
		}},
	})
	if err != nil {
		t.Fatalf("sibling same-name loops should be accepted: %v", err)
	}
	// ...but not with different trip counts.
	_, err = NewNest("bad-dup", arrays, []Node{
		&Loop{Index: "o", Trip: n, Body: []Node{
			&Loop{Index: "i", Trip: n, Body: []Node{
				&Stmt{Refs: []Ref{{Array: "A", Subs: []Subscript{Idx("i")}}}},
			}},
			&Loop{Index: "i", Trip: expr.Const(2), Body: []Node{
				&Stmt{Refs: []Ref{{Array: "A", Subs: []Subscript{Idx("i")}}}},
			}},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "different trip counts") {
		t.Fatalf("want trip-count mismatch error, got %v", err)
	}
	// Same index used in two subscripts of one reference.
	arrays2 := []*Array{{Name: "A", Dims: []*expr.Expr{n, n}}}
	_, err = NewNest("bad5", arrays2, []Node{
		&Loop{Index: "i", Trip: n, Body: []Node{
			&Stmt{Refs: []Ref{{Array: "A", Subs: []Subscript{Idx("i"), Idx("i")}}}},
		}},
	})
	if err == nil || !strings.Contains(err.Error(), "two subscripts") {
		t.Fatalf("want repeated-index error, got %v", err)
	}
	// No statements at all.
	_, err = NewNest("bad6", arrays, []Node{&Loop{Index: "i", Trip: n}})
	if err == nil || !strings.Contains(err.Error(), "no statements") {
		t.Fatalf("want no-statement error, got %v", err)
	}
}

func TestValidateEnv(t *testing.T) {
	nest := simpleMatmul(t)
	if err := nest.ValidateEnv(expr.Env{"N": 8}); err != nil {
		t.Fatal(err)
	}
	if err := nest.ValidateEnv(expr.Env{}); err == nil {
		t.Fatal("missing symbol should fail")
	}
	if err := nest.ValidateEnv(expr.Env{"N": 0}); err == nil {
		t.Fatal("non-positive symbol should fail")
	}
}

func TestTotalIterations(t *testing.T) {
	nest := simpleMatmul(t)
	got, err := nest.TotalIterations().Eval(expr.Env{"N": 5})
	if err != nil {
		t.Fatal(err)
	}
	if got != 125 {
		t.Fatalf("got %d want 125", got)
	}
}

func TestStmtsTouchingAndSites(t *testing.T) {
	nest := simpleMatmul(t)
	if got := nest.StmtsTouching("A"); len(got) != 1 {
		t.Fatalf("StmtsTouching(A) = %v", got)
	}
	sites := nest.Sites()
	if len(sites) != 3 {
		t.Fatalf("got %d sites want 3", len(sites))
	}
	if sites[0].Key() != "S1#0" {
		t.Fatalf("site key %s", sites[0].Key())
	}
	aSites := nest.SitesFor("A")
	if len(aSites) != 1 || aSites[0].Ref().Array != "A" {
		t.Fatalf("SitesFor(A) = %v", aSites)
	}
}

func TestStringRendering(t *testing.T) {
	nest := simpleMatmul(t)
	out := nest.String()
	for _, want := range []string{"for i = 0, N-1", "A[i, j] (read)", "C[i, k] (update)", "double A[N, N]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestFootprint(t *testing.T) {
	nest := simpleMatmul(t)
	got, err := nest.Footprint().Eval(expr.Env{"N": 10})
	if err != nil || got != 300 {
		t.Fatalf("footprint %d, %v (want 300)", got, err)
	}
}

func TestArrayElements(t *testing.T) {
	n := expr.Var("N")
	a := &Array{Name: "A", Dims: []*expr.Expr{n, expr.Const(4)}}
	v, err := a.Elements().Eval(expr.Env{"N": 10})
	if err != nil || v != 40 {
		t.Fatalf("elements = %d, %v", v, err)
	}
}

func TestImperfectNestConstruction(t *testing.T) {
	// Mirror of the paper's Fig. 6 shape in miniature:
	// for i { S1; for j { S2 } ; for m { S3 } }
	n := expr.Var("N")
	arrays := []*Array{
		{Name: "T", Dims: []*expr.Expr{n}},
		{Name: "A", Dims: []*expr.Expr{n, n}},
		{Name: "B", Dims: []*expr.Expr{n, n}},
	}
	s1 := &Stmt{Label: "S1", Refs: []Ref{{Array: "T", Mode: Write, Subs: []Subscript{Idx("i")}}}}
	s2 := &Stmt{Label: "S2", Refs: []Ref{
		{Array: "T", Mode: Update, Subs: []Subscript{Idx("i")}},
		{Array: "A", Mode: Read, Subs: []Subscript{Idx("i"), Idx("j")}},
	}}
	s3 := &Stmt{Label: "S3", Refs: []Ref{
		{Array: "B", Mode: Update, Subs: []Subscript{Idx("m"), Idx("i")}},
		{Array: "T", Mode: Read, Subs: []Subscript{Idx("i")}},
	}}
	nest, err := NewNest("imperfect", arrays, []Node{
		&Loop{Index: "i", Trip: n, Body: []Node{
			s1,
			&Loop{Index: "j", Trip: n, Body: []Node{s2}},
			&Loop{Index: "m", Trip: n, Body: []Node{s3}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nest.Stmts()); got != 3 {
		t.Fatalf("got %d stmts", got)
	}
	if ids := []int{nest.Stmts()[0].ID, nest.Stmts()[1].ID, nest.Stmts()[2].ID}; ids[0] != 0 || ids[1] != 1 || ids[2] != 2 {
		t.Fatalf("stmt IDs %v not in program order", ids)
	}
	tStmts := nest.StmtsTouching("T")
	if len(tStmts) != 3 {
		t.Fatalf("T touched by %d stmts, want 3", len(tStmts))
	}
	if d := nest.Depth(s2); d != 2 {
		t.Fatalf("depth(S2)=%d want 2", d)
	}
}

// StmtsTouching returns the statements referencing the array, in program
// order.
func (n *Nest) StmtsTouching(array string) []*Stmt { return n.refStmt[array] }

// Depth returns the nesting depth of s (number of enclosing loops).
func (n *Nest) Depth(s *Stmt) int { return len(n.encl[s]) }

// AppearingLoops returns, for reference r of statement s, the subset of
// enclosing loops whose index appears in r, outermost first, and the
// complementary non-appearing loops.
func (n *Nest) AppearingLoops(s *Stmt, r *Ref) (app, nonApp []*Loop) {
	used := map[string]bool{}
	for _, sub := range r.Subs {
		for _, t := range sub.Terms {
			used[t.Index] = true
		}
	}
	for _, l := range n.encl[s] {
		if used[l.Index] {
			app = append(app, l)
		} else {
			nonApp = append(nonApp, l)
		}
	}
	return app, nonApp
}

// Footprint returns the symbolic total memory footprint of the nest in
// elements: the sum of all array sizes. This is the quantity loop fusion
// reduces (Fig. 1 of the paper) and the bound that decides when a
// computation needs out-of-core treatment.
func (n *Nest) Footprint() *expr.Expr {
	total := expr.Zero()
	for _, a := range n.Arrays {
		total = expr.Add(total, a.Elements())
	}
	return total
}

// TotalIterations returns the symbolic total number of innermost statement
// executions, summed over all statements.
func (n *Nest) TotalIterations() *expr.Expr {
	total := expr.Zero()
	for _, s := range n.stmts {
		iter := expr.One()
		for _, l := range n.encl[s] {
			iter = expr.Mul(iter, l.Trip)
		}
		total = expr.Add(total, iter)
	}
	return total
}

// SitesFor returns the reference sites touching the given array, in program
// order.
func (n *Nest) SitesFor(array string) []RefSite {
	var out []RefSite
	for _, st := range n.stmts {
		for i := range st.Refs {
			if st.Refs[i].Array == array {
				out = append(out, RefSite{Stmt: st, RefIdx: i})
			}
		}
	}
	return out
}
