package loopir

import (
	"strings"
	"testing"

	"repro/internal/expr"
)

func TestPlanString(t *testing.T) {
	cases := []struct {
		plan Plan
		want string
	}{
		{nil, "identity"},
		{Plan{{Op: "fuse"}}, "fuse"},
		{Plan{{Op: "permute", Order: []string{"k", "i", "j"}}}, "permute(k,i,j)"},
		{Plan{{Op: "fuse"}, {Op: "permute", Order: []string{"j", "i"}}, {Op: "tile"}},
			"fuse; permute(j,i); tile"},
	}
	for _, c := range cases {
		if got := c.plan.String(); got != c.want {
			t.Errorf("Plan%v.String() = %q, want %q", c.plan, got, c.want)
		}
	}
}

func TestApplyPlanIdentity(t *testing.T) {
	nest := simpleMatmul(t)
	got, err := ApplyPlan(nest, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != nest {
		t.Error("empty plan should return the input nest unchanged")
	}
}

func TestApplyPlanPermute(t *testing.T) {
	nest := simpleMatmul(t)
	got, err := ApplyPlan(nest, Plan{{Op: "permute", Order: []string{"k", "j", "i"}}})
	if err != nil {
		t.Fatal(err)
	}
	loops := got.Loops()
	if loops[0].Index != "k" || loops[1].Index != "j" || loops[2].Index != "i" {
		t.Errorf("permuted order %s,%s,%s", loops[0].Index, loops[1].Index, loops[2].Index)
	}
	if nest.Loops()[0].Index != "i" {
		t.Error("input nest mutated")
	}
}

func TestApplyPlanTile(t *testing.T) {
	nest := simpleMatmul(t)
	got, err := ApplyPlan(nest, Plan{{Op: "tile"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Loops()) != 6 {
		t.Errorf("tiled nest has %d loops, want 6", len(got.Loops()))
	}
	syms := strings.Join(got.SymbolNames(), ",")
	for _, want := range []string{"TI", "TJ", "TK"} {
		if !strings.Contains(syms, want) {
			t.Errorf("tiled nest symbols %s miss %s", syms, want)
		}
	}
}

func TestApplyPlanStepErrorNamesStep(t *testing.T) {
	nest := simpleMatmul(t)
	_, err := ApplyPlan(nest, Plan{
		{Op: "permute", Order: []string{"k", "j", "i"}},
		{Op: "bogus"},
	})
	if err == nil || !strings.Contains(err.Error(), "plan step 1 (bogus)") {
		t.Errorf("error %v should name the failing step", err)
	}
	_, err = ApplyPlan(nest, Plan{{Op: "fuse"}})
	if err == nil || !strings.Contains(err.Error(), "no legal adjacent fusion") {
		t.Errorf("fusing a perfect nest should report a structural no-op, got %v", err)
	}
}

// lastWinsNest builds FOR i, j: A[i] = B[j] — a Write whose value varies
// with a loop (j) absent from the target's subscripts: the canonical
// last-iteration-wins permutation hazard.
func lastWinsNest(t *testing.T) *Nest {
	t.Helper()
	n := expr.Var("N")
	nest, err := NewNest("lastwins",
		[]*Array{
			{Name: "A", Dims: []*expr.Expr{n}},
			{Name: "B", Dims: []*expr.Expr{n}},
		},
		[]Node{&Loop{Index: "i", Trip: n, Body: []Node{
			&Loop{Index: "j", Trip: n, Body: []Node{
				&Stmt{Label: "S1", Refs: []Ref{
					{Array: "B", Mode: Read, Subs: []Subscript{Idx("j")}},
					{Array: "A", Mode: Write, Subs: []Subscript{Idx("i")}},
				}},
			}},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	return nest
}

func TestPermutationHazards(t *testing.T) {
	// The matmul reduction (Update target) is fully permutable.
	if hz := PermutationHazards(simpleMatmul(t)); len(hz) != 0 {
		t.Errorf("matmul reported hazards: %v", hz)
	}
	// Last-iteration-wins Write: hazard naming the varying loop.
	hz := PermutationHazards(lastWinsNest(t))
	if len(hz) == 0 {
		t.Fatal("last-iteration-wins nest reported permutable")
	}
	if !strings.Contains(hz[0], "loop j") || !strings.Contains(hz[0], "A") {
		t.Errorf("hazard %q should name loop j and array A", hz[0])
	}
	// ApplyPlan refuses the permutation with the hazard text.
	_, err := ApplyPlan(lastWinsNest(t), Plan{{Op: "permute", Order: []string{"j", "i"}}})
	if err == nil || !strings.Contains(err.Error(), "last iteration") {
		t.Errorf("permute of hazardous nest: %v", err)
	}
	// An imperfect nest names its defect.
	n := expr.Var("N")
	imp, err := NewNest("imp",
		[]*Array{{Name: "X", Dims: []*expr.Expr{n}}},
		[]Node{&Loop{Index: "i", Trip: n, Body: []Node{
			&Stmt{Label: "S1", Refs: []Ref{{Array: "X", Mode: Update, Subs: []Subscript{Idx("i")}}}},
			&Stmt{Label: "S2", Refs: []Ref{{Array: "X", Mode: Update, Subs: []Subscript{Idx("i")}}}},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	hz = PermutationHazards(imp)
	if len(hz) == 0 || !strings.Contains(hz[0], "loop i has 2 body nodes") {
		t.Errorf("imperfect-nest hazard %v should carry the defect", hz)
	}
}

func TestPermutationHazardsReadWriteAlias(t *testing.T) {
	// FOR i, j: A[i] += A[j]·B[j] — the read of A through different
	// subscripts is a dependence whose direction flips with loop order.
	n := expr.Var("N")
	nest, err := NewNest("alias",
		[]*Array{
			{Name: "A", Dims: []*expr.Expr{n}},
			{Name: "B", Dims: []*expr.Expr{n}},
		},
		[]Node{&Loop{Index: "i", Trip: n, Body: []Node{
			&Loop{Index: "j", Trip: n, Body: []Node{
				&Stmt{Label: "S1", Refs: []Ref{
					{Array: "A", Mode: Read, Subs: []Subscript{Idx("j")}},
					{Array: "B", Mode: Read, Subs: []Subscript{Idx("j")}},
					{Array: "A", Mode: Update, Subs: []Subscript{Idx("i")}},
				}},
			}},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	hz := PermutationHazards(nest)
	if len(hz) == 0 || !strings.Contains(hz[0], "dependence direction") {
		t.Errorf("aliasing read should be a hazard, got %v", hz)
	}
}

func TestPermutePerfectErrorNaming(t *testing.T) {
	// Imperfect input: the error names the loop that breaks the chain.
	n := expr.Var("N")
	imp, err := NewNest("imp",
		[]*Array{{Name: "X", Dims: []*expr.Expr{n}}},
		[]Node{&Loop{Index: "i", Trip: n, Body: []Node{
			&Stmt{Label: "S1", Refs: []Ref{{Array: "X", Mode: Update, Subs: []Subscript{Idx("i")}}}},
			&Stmt{Label: "S2", Refs: []Ref{{Array: "X", Mode: Update, Subs: []Subscript{Idx("i")}}}},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PermutePerfect(imp, []string{"i"}); err == nil ||
		!strings.Contains(err.Error(), "loop i has 2 body nodes") {
		t.Errorf("imperfect error should name loop i: %v", err)
	}
	// Short order: the error names the missing loops.
	if _, err := PermutePerfect(simpleMatmul(t), []string{"k"}); err == nil ||
		!strings.Contains(err.Error(), "missing i, j") {
		t.Errorf("short-order error should name missing loops: %v", err)
	}
}

func TestTileAllNameCollision(t *testing.T) {
	// A nest whose loop is named "ti" would generate tile symbol "TI"... use
	// an index whose generated TileVar collides with an existing bound
	// symbol: loop "i" with bound symbol TI.
	ti := expr.Var("TI")
	nest, err := NewNest("clash",
		[]*Array{{Name: "A", Dims: []*expr.Expr{ti}}},
		[]Node{&Loop{Index: "i", Trip: ti, Body: []Node{
			&Stmt{Label: "S1", Refs: []Ref{{Array: "A", Mode: Update, Subs: []Subscript{Idx("i")}}}},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := TileAll(nest); err == nil ||
		!strings.Contains(err.Error(), "generated name TI collides") {
		t.Errorf("collision error: %v", err)
	}
}

func TestFuseLegalCountsAndGates(t *testing.T) {
	n := expr.Var("N")
	mk := func(label, arr string, mode AccessMode) Node {
		return &Loop{Index: "i", Trip: n, Body: []Node{
			&Stmt{Label: label, Refs: []Ref{{Array: arr, Mode: mode, Subs: []Subscript{Idx("i")}}}},
		}}
	}
	arrays := []*Array{
		{Name: "A", Dims: []*expr.Expr{n}},
		{Name: "B", Dims: []*expr.Expr{n}},
	}
	nest, err := NewNest("pair", arrays, []Node{mk("S1", "A", Write), mk("S2", "B", Update)})
	if err != nil {
		t.Fatal(err)
	}
	fused, merges, err := FuseLegal(nest)
	if err != nil {
		t.Fatal(err)
	}
	if merges != 1 || len(fused.Loops()) != 1 {
		t.Errorf("merges=%d loops=%d, want 1 and 1", merges, len(fused.Loops()))
	}
	// A hazardous pair — writer A[i] then reader A[0]-style misalignment —
	// must not merge. Here the consumer reads A through a different index
	// dimension (scalar-broadcast shape): producer writes A[i], consumer
	// reads A[j] inside its own i loop.
	hazNest, err := NewNest("haz", arrays, []Node{
		mk("S1", "A", Write),
		&Loop{Index: "i", Trip: n, Body: []Node{
			&Loop{Index: "j", Trip: n, Body: []Node{
				&Stmt{Label: "S2", Refs: []Ref{
					{Array: "A", Mode: Read, Subs: []Subscript{Idx("j")}},
					{Array: "B", Mode: Update, Subs: []Subscript{Idx("i")}},
				}},
			}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, merges, err = FuseLegal(hazNest)
	if err != nil {
		t.Fatal(err)
	}
	if merges != 0 {
		t.Errorf("hazardous pair merged (%d merges)", merges)
	}
}
