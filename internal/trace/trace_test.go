package trace

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
)

func vecSum(t *testing.T) *loopir.Nest {
	t.Helper()
	n := expr.Var("N")
	nest, err := loopir.NewNest("vecsum",
		[]*loopir.Array{
			{Name: "X", Dims: []*expr.Expr{n}},
			{Name: "Y", Dims: []*expr.Expr{n}},
		},
		[]loopir.Node{
			&loopir.Loop{Index: "i", Trip: n, Body: []loopir.Node{
				&loopir.Stmt{Label: "S1", Refs: []loopir.Ref{
					{Array: "X", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i")}},
					{Array: "Y", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("i")}},
				}},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	return nest
}

func TestVectorTrace(t *testing.T) {
	nest := vecSum(t)
	p, err := Compile(nest, expr.Env{"N": 4})
	if err != nil {
		t.Fatal(err)
	}
	sites, addrs := collectBlocks(p, 0)
	// Arrays laid out alphabetically: X at 0, Y at 4.
	wantAddrs := []int64{0, 4, 1, 5, 2, 6, 3, 7}
	wantSites := []int{0, 1, 0, 1, 0, 1, 0, 1}
	if len(addrs) != len(wantAddrs) {
		t.Fatalf("trace length %d want %d", len(addrs), len(wantAddrs))
	}
	for i := range addrs {
		if addrs[i] != wantAddrs[i] || sites[i] != wantSites[i] {
			t.Fatalf("access %d = (site %d, addr %d), want (site %d, addr %d)",
				i, sites[i], addrs[i], wantSites[i], wantAddrs[i])
		}
	}
	if p.Size != 8 {
		t.Fatalf("address space %d want 8", p.Size)
	}
}

func TestMatmulTraceOrderAndLength(t *testing.T) {
	n := expr.Var("N")
	stmt := &loopir.Stmt{
		Label: "S1",
		Refs: []loopir.Ref{
			{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("j")}},
			{Array: "B", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("j"), loopir.Idx("k")}},
			{Array: "C", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("k")}},
		},
	}
	nest, err := loopir.BuildPerfect(loopir.PerfectNestSpec{
		Name: "matmul",
		Arrays: []*loopir.Array{
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
	p, err := Compile(nest, expr.Env{"N": 3})
	if err != nil {
		t.Fatal(err)
	}
	wantLen, err := p.Length()
	if err != nil {
		t.Fatal(err)
	}
	if wantLen != 3*3*3*3 {
		t.Fatalf("Length = %d want 81", wantLen)
	}
	sites, addrs := collectBlocks(p, 0)
	if int64(len(addrs)) != wantLen {
		t.Fatalf("trace length %d want %d", len(addrs), wantLen)
	}
	// First iteration (i=0,j=0,k=0): A[0,0]=0, B[0,0]=9, C[0,0]=18.
	if addrs[0] != 0 || addrs[1] != 9 || addrs[2] != 18 {
		t.Fatalf("first iteration addrs = %v", addrs[:3])
	}
	// Second iteration (k=1): A[0,0] again, B[0,1]=10, C[0,1]=19.
	if addrs[3] != 0 || addrs[4] != 10 || addrs[5] != 19 {
		t.Fatalf("second iteration addrs = %v", addrs[3:6])
	}
	// Sites cycle 0,1,2.
	for i, s := range sites {
		if s != i%3 {
			t.Fatalf("site[%d]=%d", i, s)
		}
	}
	if err := p.CheckBounds(); err != nil {
		t.Fatal(err)
	}
}

func TestTiledSubscripts(t *testing.T) {
	// for iT(2) { for iI(3) { X[iT*3+iI] } } must sweep 0..5 in order.
	ti := expr.Var("TI")
	nest, err := loopir.NewNest("tiledvec",
		[]*loopir.Array{{Name: "X", Dims: []*expr.Expr{expr.Var("N")}}},
		[]loopir.Node{
			&loopir.Loop{Index: "iT", Trip: expr.CeilDiv(expr.Var("N"), ti), Body: []loopir.Node{
				&loopir.Loop{Index: "iI", Trip: ti, Body: []loopir.Node{
					&loopir.Stmt{Label: "S1", Refs: []loopir.Ref{
						{Array: "X", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.TilePair("iT", ti, "iI")}},
					}},
				}},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(nest, expr.Env{"N": 6, "TI": 3})
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := collectBlocks(p, 0)
	for i, a := range addrs {
		if a != int64(i) {
			t.Fatalf("addr[%d]=%d want %d", i, a, i)
		}
	}
	if err := p.CheckBounds(); err != nil {
		t.Fatal(err)
	}
}

func TestImperfectTraceOrder(t *testing.T) {
	// for i(2) { S1: X[i]; for j(2) { S2: Y[j] } }
	n := expr.Const(2)
	nest, err := loopir.NewNest("imp",
		[]*loopir.Array{
			{Name: "X", Dims: []*expr.Expr{n}},
			{Name: "Y", Dims: []*expr.Expr{n}},
		},
		[]loopir.Node{
			&loopir.Loop{Index: "i", Trip: n, Body: []loopir.Node{
				&loopir.Stmt{Label: "S1", Refs: []loopir.Ref{
					{Array: "X", Mode: loopir.Write, Subs: []loopir.Subscript{loopir.Idx("i")}},
				}},
				&loopir.Loop{Index: "j", Trip: n, Body: []loopir.Node{
					&loopir.Stmt{Label: "S2", Refs: []loopir.Ref{
						{Array: "Y", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("j")}},
					}},
				}},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(nest, expr.Env{})
	if err != nil {
		t.Fatal(err)
	}
	_, addrs := collectBlocks(p, 0)
	// X at 0..1, Y at 2..3. Order: X[0], Y[0], Y[1], X[1], Y[0], Y[1].
	want := []int64{0, 2, 3, 1, 2, 3}
	if len(addrs) != len(want) {
		t.Fatalf("length %d want %d", len(addrs), len(want))
	}
	for i := range want {
		if addrs[i] != want[i] {
			t.Fatalf("addrs = %v want %v", addrs, want)
		}
	}
}

func TestCompileRejectsBadEnv(t *testing.T) {
	nest := vecSum(t)
	if _, err := Compile(nest, expr.Env{}); err == nil {
		t.Fatal("expected error for missing N")
	}
	if _, err := Compile(nest, expr.Env{"N": -1}); err == nil {
		t.Fatal("expected error for negative N")
	}
}

func TestCheckBoundsCatchesOverflow(t *testing.T) {
	// X has extent 2 but the loop runs to 3, so X[2] lands in Y: inside the
	// address space, which Compile checks, but outside X.
	nest, err := loopir.NewNest("bad",
		[]*loopir.Array{{Name: "X", Dims: []*expr.Expr{expr.Var("M")}}, {Name: "Y", Dims: []*expr.Expr{expr.Var("M")}}},
		[]loopir.Node{
			&loopir.Loop{Index: "i", Trip: expr.Var("N"), Body: []loopir.Node{
				&loopir.Stmt{Refs: []loopir.Ref{
					{Array: "X", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i")}},
				}},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(nest, expr.Env{"N": 3, "M": 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckBounds(); err == nil {
		t.Fatal("expected bounds violation")
	}
}

// TestCompileRejectsOutOfRange: a loop that runs past its array's extent,
// with no array after it, would address beyond the simulators' address
// space; Compile rejects it instead.
func TestCompileRejectsOutOfRange(t *testing.T) {
	nest, err := loopir.Parse("nest oob\narray A[N]\nfor i = M {\n  S: A[i] = 0\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(nest, expr.Env{"N": 4, "M": 64})
	if err == nil || !strings.Contains(err.Error(), "outside the address space [0, 4)") {
		t.Fatalf("got %v, want an out-of-range error", err)
	}
	if _, err := Compile(nest, expr.Env{"N": 64, "M": 64}); err != nil {
		t.Fatalf("in-range nest rejected: %v", err)
	}
}

// TestCompileRejectsOverflow: at N = 2^21 the matmul's trace length
// (3·N^3 accesses) and addresses overflow int64; Compile reports it instead
// of returning a program whose Length wraps negative.
func TestCompileRejectsOverflow(t *testing.T) {
	nest, err := kernels.Matmul()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(nest, expr.Env{"N": 1 << 21}); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("got %v, want an overflow error", err)
	}
	p, err := Compile(nest, expr.Env{"N": 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := p.Length(); err != nil || n != 3<<30 {
		t.Fatalf("Length = %d, %v; want %d", n, err, int64(3)<<30)
	}
}
