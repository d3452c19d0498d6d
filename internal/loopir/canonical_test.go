package loopir_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/nestgen"
	"repro/internal/testutil"
)

// handBuilt names the corpus nest with statements the parser cannot read
// back: a read-only one and one with two written references.
const handBuilt = "odd name-1.x"

// canonicalCorpus is every nest shape the renderer meets: the six kernels,
// generated perfect, tiled and imperfect nests with their tilings and
// fusions, parsed text with negative coefficients and scalars, and
// hand-built statements the parser never produces (read-only, several
// written references, an empty subscript among others, a name that is not
// an identifier).
func canonicalCorpus(t *testing.T) []*loopir.Nest {
	t.Helper()
	var out []*loopir.Nest
	add := func(n *loopir.Nest, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, n)
	}
	for _, kind := range []string{"matmul", "matmul-naive", "twoindex", "twoindexchain", "fourindex", "ccsd"} {
		nest, _, err := experiments.BuildKernel(kind, 64, nil)
		add(nest, err)
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		cfg := nestgen.Config{Imperfect: i%3 == 1, Tiled: i%3 == 2}
		nest, _, err := nestgen.Generate(r, i, cfg)
		add(nest, err)
		if tiled, _, err := loopir.TileAll(nest); err == nil {
			out = append(out, tiled)
		}
		if fused, _, err := loopir.FuseLegal(nest); err == nil {
			out = append(out, fused)
		}
	}
	for _, src := range []string{
		"nest neg\narray A[N - 1, 2 - M]\nfor i = N - 1 { for j = -3 + M*2 {\n  S: A[i, j*(0 - K)] += A[i, j]\n} }\n",
		"nest scalar\narray T[M]\nfor i = ceil(M/2) {\n  S0: T[] += T[i*2]\n}\n",
		"nest divs\narray A[floor(N/3) + 1]\nfor i = floor(N/3) + 1 {\n  S0: A[i] = 0\n}\n",
	} {
		add(loopir.Parse(src))
	}
	n := expr.Var("N")
	arrays := []*loopir.Array{{Name: "B", Dims: []*expr.Expr{n, n}}, {Name: "A", Dims: []*expr.Expr{n}}}
	add(loopir.NewNest(handBuilt, arrays, []loopir.Node{
		&loopir.Loop{Index: "i", Trip: n, Body: []loopir.Node{
			&loopir.Stmt{Refs: []loopir.Ref{
				{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i")}},
				{Array: "B", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.ConstIdx(), loopir.Idx("i")}},
			}},
			&loopir.Loop{Index: "j", Trip: n, Body: []loopir.Node{
				&loopir.Stmt{Refs: []loopir.Ref{
					{Array: "B", Mode: loopir.Write, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("j")}},
					{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("j")}},
					{Array: "A", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("i")}},
				}},
			}},
		}},
	}))
	add(kernels.TiledMatmul())
	return out
}

// TestUnparseMatchesOracle: the one-builder renderer writes the former
// renderer's bytes, and SymbolNames lists the former symbols, on every nest
// of the corpus, and the text parses back to itself.
func TestUnparseMatchesOracle(t *testing.T) {
	for _, nest := range canonicalCorpus(t) {
		got, want := loopir.Unparse(nest), testutil.FormerUnparse(nest)
		if got != want {
			t.Fatalf("%s: Unparse\n%s\nformer renderer\n%s", nest.Name, got, want)
		}
		if got, want := nest.SymbolNames(), testutil.FormerSymbolNames(nest); !slices.Equal(got, want) {
			t.Fatalf("%s: symbols %v, former listing %v", nest.Name, got, want)
		}
		if nest.Name != handBuilt {
			back, err := loopir.Parse(got)
			if err != nil {
				t.Fatalf("%s: rendered text does not parse: %v\n%s", nest.Name, err, got)
			}
			if again := loopir.Unparse(back); again != got {
				t.Fatalf("%s: not a fixed point:\n%s\n%s", nest.Name, got, again)
			}
		}
	}
}

// TestNestCanonicalOnce: a nest's text is rendered once and every call
// returns it, and SymbolNames hands each caller its own copy.
func TestNestCanonicalOnce(t *testing.T) {
	nest, _, err := experiments.BuildKernel("twoindex", 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := loopir.Unparse(nest), loopir.Unparse(nest)
	if a != b {
		t.Fatal("two renderings differ")
	}
	if n := testing.AllocsPerRun(20, func() { loopir.Unparse(nest) }); n != 0 {
		t.Errorf("a rendered nest's Unparse allocates %.0f objects, want 0", n)
	}
	syms := nest.SymbolNames()
	want := slices.Clone(syms)
	syms[0] = "changed"
	if got := nest.SymbolNames(); !slices.Equal(got, want) {
		t.Errorf("a caller's change to SymbolNames reached the nest: %v, want %v", got, want)
	}
}

// TestDuplicateStatementLabels: every per-site answer keys a site by its
// statement's label, so NewNest rejects a label used twice, a default
// S<ID> label that collides with an explicit one included.
func TestDuplicateStatementLabels(t *testing.T) {
	_, err := loopir.Parse("nest dup\narray A[N]\narray B[N]\nfor k = K {\n" +
		"  for i = N { S1: A[i] += B[i] }\n  for j = N { S1: B[j] += A[j] }\n}\n")
	if err == nil || !strings.Contains(err.Error(), "duplicate statement label S1") {
		t.Errorf("parsed twice-used label: err = %v", err)
	}
	n := expr.Var("N")
	arrays := []*loopir.Array{{Name: "A", Dims: []*expr.Expr{n}}}
	stmt := func(label string) *loopir.Stmt {
		return &loopir.Stmt{Label: label, Refs: []loopir.Ref{{Array: "A", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("i")}}}}
	}
	// The second statement's default label is S1, the first one's label.
	_, err = loopir.NewNest("dup-default", arrays, []loopir.Node{
		&loopir.Loop{Index: "i", Trip: n, Body: []loopir.Node{stmt("S1"), stmt("")}},
	})
	if err == nil || !strings.Contains(err.Error(), "duplicate statement label S1") {
		t.Errorf("default label colliding with an explicit one: err = %v", err)
	}
	if _, err := loopir.NewNest("distinct", arrays, []loopir.Node{
		&loopir.Loop{Index: "i", Trip: n, Body: []loopir.Node{stmt("S0"), stmt(""), stmt("S2")}},
	}); err != nil {
		t.Errorf("distinct labels rejected: %v", err)
	}
}
