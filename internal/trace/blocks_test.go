package trace

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/loopir"
)

// collectScalar materializes the reference stream through the original
// per-access walker.
func collectScalar(p *Program) (sites []int, addrs []int64) {
	p.RunScalar(func(site int, addr int64) {
		sites = append(sites, site)
		addrs = append(addrs, addr)
	})
	return sites, addrs
}

// collectBlocks materializes the stream through RunBlocks at a given block
// size.
func collectBlocks(p *Program, blockSize int) (sites []int, addrs []int64) {
	p.RunBlocks(blockSize, func(bs []int32, ba []int64) {
		for i := range ba {
			sites = append(sites, int(bs[i]))
			addrs = append(addrs, ba[i])
		}
	})
	return sites, addrs
}

// blockFixtures builds a spread of nest shapes: vector, perfect 3-deep,
// tiled, and imperfect (statement beside a loop, exercising the non-leaf
// statement path).
func blockFixtures(t *testing.T) []*Program {
	t.Helper()
	var progs []*Program
	compile := func(nest *loopir.Nest, env expr.Env) {
		p, err := Compile(nest, env)
		if err != nil {
			t.Fatalf("%s: %v", nest.Name, err)
		}
		progs = append(progs, p)
	}

	compile(vecSum(t), expr.Env{"N": 7})

	n := expr.Var("N")
	mm, err := loopir.BuildPerfect(loopir.PerfectNestSpec{
		Name: "mm",
		Arrays: []*loopir.Array{
			{Name: "A", Dims: []*expr.Expr{n, n}},
			{Name: "B", Dims: []*expr.Expr{n, n}},
			{Name: "C", Dims: []*expr.Expr{n, n}},
		},
		Indices: []string{"i", "j", "k"},
		Trips:   []*expr.Expr{n, n, n},
		Stmt: &loopir.Stmt{Label: "S1", Refs: []loopir.Ref{
			{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("j")}},
			{Array: "B", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("j"), loopir.Idx("k")}},
			{Array: "C", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("k")}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	compile(mm, expr.Env{"N": 5})

	ti := expr.Var("TI")
	tiled, err := loopir.NewNest("tiled",
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
	compile(tiled, expr.Env{"N": 12, "TI": 4})

	c := expr.Const(3)
	imp, err := loopir.NewNest("imp",
		[]*loopir.Array{
			{Name: "X", Dims: []*expr.Expr{c}},
			{Name: "Y", Dims: []*expr.Expr{c, c}},
		},
		[]loopir.Node{
			&loopir.Loop{Index: "i", Trip: c, Body: []loopir.Node{
				&loopir.Stmt{Label: "S1", Refs: []loopir.Ref{
					{Array: "X", Mode: loopir.Write, Subs: []loopir.Subscript{loopir.Idx("i")}},
				}},
				&loopir.Loop{Index: "j", Trip: c, Body: []loopir.Node{
					&loopir.Stmt{Label: "S2", Refs: []loopir.Ref{
						{Array: "Y", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("j")}},
						{Array: "X", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("j")}},
					}},
				}},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	compile(imp, expr.Env{})
	return progs
}

// TestRunBlocksMatchesScalar pins the batched walker to the per-access
// reference walker: identical (site, addr) streams at every block size,
// including sizes that force flushes mid-loop.
func TestRunBlocksMatchesScalar(t *testing.T) {
	for _, p := range blockFixtures(t) {
		wantSites, wantAddrs := collectScalar(p)
		for _, bs := range []int{0, 1, 2, 3, 7, 64, DefaultBlockSize} {
			gotSites, gotAddrs := collectBlocks(p, bs)
			if len(gotAddrs) != len(wantAddrs) {
				t.Fatalf("%s block %d: %d accesses want %d",
					p.Nest.Name, bs, len(gotAddrs), len(wantAddrs))
			}
			for i := range wantAddrs {
				if gotSites[i] != wantSites[i] || gotAddrs[i] != wantAddrs[i] {
					t.Fatalf("%s block %d access %d: (site %d, addr %d) want (site %d, addr %d)",
						p.Nest.Name, bs, i, gotSites[i], gotAddrs[i], wantSites[i], wantAddrs[i])
				}
			}
		}
	}
}

// TestRunBlocksLength checks the compile-time trace length against the
// symbolic Length and the actual stream.
func TestRunBlocksLength(t *testing.T) {
	for _, p := range blockFixtures(t) {
		want, err := p.Length()
		if err != nil {
			t.Fatal(err)
		}
		if p.total != want {
			t.Fatalf("%s: compiled total %d, symbolic length %d", p.Nest.Name, p.total, want)
		}
		_, addrs := collectBlocks(p, 16)
		if int64(len(addrs)) != want {
			t.Fatalf("%s: stream length %d want %d", p.Nest.Name, len(addrs), want)
		}
	}
}

// TestCheckBoundsLastArray ensures a violation confined to the array with
// the highest base address (last in the sorted layout) is still reported.
// Past the last array there is no address space left, so Compile itself
// rejects the nest, naming the reference.
func TestCheckBoundsLastArray(t *testing.T) {
	// Arrays A, B, Z: A and B are indexed in range, Z[i] overflows (extent
	// 2, loop runs to 4). Z sorts last, so its base is the highest.
	n := expr.Var("N")
	nest, err := loopir.NewNest("lastbad",
		[]*loopir.Array{
			{Name: "A", Dims: []*expr.Expr{n}},
			{Name: "B", Dims: []*expr.Expr{n}},
			{Name: "Z", Dims: []*expr.Expr{expr.Var("M")}},
		},
		[]loopir.Node{
			&loopir.Loop{Index: "i", Trip: n, Body: []loopir.Node{
				&loopir.Stmt{Label: "S1", Refs: []loopir.Ref{
					{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i")}},
					{Array: "B", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i")}},
					{Array: "Z", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("i")}},
				}},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Compile(nest, expr.Env{"N": 4, "M": 2})
	if err == nil {
		t.Fatal("expected bounds violation in last array")
	}
	if !strings.Contains(err.Error(), "Z[i]") {
		t.Fatalf("violation does not name array Z: %v", err)
	}
}
