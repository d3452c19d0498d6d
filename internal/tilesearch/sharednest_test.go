package tilesearch_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/loopir"
	"repro/internal/tilesearch"
)

// structure renders a nest from its fields as they are now, bypassing the
// text Unparse rendered once: the pseudo-code of every array, loop and
// reference, then each statement's ID, label and flops.
func structure(n *loopir.Nest) string {
	var b strings.Builder
	b.WriteString(n.String())
	for _, st := range n.Stmts() {
		fmt.Fprintf(&b, "%d %s %d\n", st.ID, st.Label, st.Flops)
	}
	fmt.Fprintf(&b, "%d loops, symbols %v\n", len(n.Loops()), n.SymbolNames())
	return b.String()
}

// TestSharedKernelNestUnchangedBySearches: BuildKernel hands every caller
// its kind's one nest, so no search may change it. After Search,
// Exhaustive and SearchPlans (with every structural axis) have run on each
// kind's nest, the nest's structure and its text are what they were, and
// the text is what a nest parsed from that text renders.
func TestSharedKernelNestUnchangedBySearches(t *testing.T) {
	for _, kind := range []string{"matmul", "matmul-naive", "twoindex", "twoindexchain", "fourindex", "ccsd"} {
		nest, env, err := experiments.BuildKernel(kind, 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		text, before := loopir.Unparse(nest), structure(nest)
		a, err := core.Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		var dims []tilesearch.Dim
		for _, sym := range nest.SymbolNames() {
			if strings.HasPrefix(sym, "T") {
				dims = append(dims, tilesearch.Dim{Symbol: sym, Max: 4})
			}
		}
		opt := tilesearch.Options{Dims: dims, CacheElems: 64, BaseEnv: env, Parallelism: 2}
		if len(dims) > 0 {
			if _, err := tilesearch.Search(a, opt); err != nil {
				t.Fatalf("%s: Search: %v", kind, err)
			}
			if _, err := tilesearch.Exhaustive(a, opt); err != nil {
				t.Fatalf("%s: Exhaustive: %v", kind, err)
			}
		}
		opt.Dims = nil
		if _, err := tilesearch.SearchPlans(nest, tilesearch.PlanOptions{Options: opt, Permute: true, Fuse: true, AutoTile: true}); err != nil {
			t.Fatalf("%s: SearchPlans: %v", kind, err)
		}
		if after := structure(nest); after != before {
			t.Errorf("%s: the searches changed the shared nest:\n%s\nwas\n%s", kind, after, before)
		}
		if again := loopir.Unparse(nest); again != text {
			t.Errorf("%s: text changed:\n%s\nwas\n%s", kind, again, text)
		}
		parsed, err := loopir.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got := loopir.Unparse(parsed); got != text {
			t.Errorf("%s: the shared nest's text is not what its structure renders:\n%s\nwant\n%s", kind, text, got)
		}
	}
}
