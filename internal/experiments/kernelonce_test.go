package experiments

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/tce"
	"repro/internal/testutil"
)

// freshKernel is the former BuildKernel, kept as the oracle of the
// once-per-kind table: every call builds the kind's whole nest again,
// fourindex's operation-minimal tree included. With testutil's former
// renderer and symbol listing it is the fresh build the shared nests are
// compared with.
func freshKernel(kind string, n int64, tiles []int64) (*loopir.Nest, expr.Env, error) {
	switch kind {
	case "matmul-naive":
		if len(tiles) != 0 {
			return nil, nil, fmt.Errorf("matmul-naive takes no tile sizes (untiled form)")
		}
		nest, err := kernels.Matmul()
		if err != nil {
			return nil, nil, err
		}
		return nest, expr.Env{"N": n}, nil
	case "twoindexchain":
		if len(tiles) != 0 {
			return nil, nil, fmt.Errorf("twoindexchain takes no tile sizes (untiled form)")
		}
		nest, err := tce.UnfusedTwoIndex(nil)
		if err != nil {
			return nil, nil, err
		}
		v := n / 2
		if v < 1 {
			v = 1
		}
		return nest, expr.Env{"N": n, "V": v}, nil
	case "matmul":
		if len(tiles) == 0 {
			tiles = defaultTiles([]int64{n, n, n}, []int64{32, 32, 32})
		}
		if len(tiles) != 3 {
			return nil, nil, fmt.Errorf("matmul needs 3 tile sizes, got %d", len(tiles))
		}
		nest, err := kernels.TiledMatmul()
		if err != nil {
			return nil, nil, err
		}
		env, err := kernels.MatmulEnv(n, tiles[0], tiles[1], tiles[2])
		return nest, env, err
	case "twoindex":
		if len(tiles) == 0 {
			tiles = defaultTiles([]int64{n, n, n, n}, []int64{64, 16, 16, 64})
		}
		if len(tiles) != 4 {
			return nil, nil, fmt.Errorf("twoindex needs 4 tile sizes, got %d", len(tiles))
		}
		nest, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
		if err != nil {
			return nil, nil, err
		}
		env, err := kernels.TwoIndexEnv(n, tiles[0], tiles[1], tiles[2], tiles[3])
		return nest, env, err
	case "fourindex":
		if len(tiles) != 0 {
			return nil, nil, fmt.Errorf("fourindex takes no tile sizes (fully fused form)")
		}
		c, r := tce.FourIndexTransform()
		tree, err := tce.OpMin(c, r, expr.Env{"N": 64, "V": 32})
		if err != nil {
			return nil, nil, err
		}
		nest, err := tce.GenFusedTransformChain("four-index-fused", tree.Sequence(), r)
		if err != nil {
			return nil, nil, err
		}
		v := n / 2
		if v < 1 {
			v = 1
		}
		return nest, expr.Env{"N": n, "V": v}, nil
	case "ccsd":
		o := n / 2
		if o < 1 {
			o = 1
		}
		if len(tiles) == 0 {
			tiles = defaultTiles([]int64{n, n, o, o, n, n}, []int64{n / 4, n / 4, o / 2, o / 2, n / 4, n / 4})
		}
		if len(tiles) != 6 {
			return nil, nil, fmt.Errorf("ccsd needs 6 tile sizes (TA,TB,TI,TJ,TC,TD), got %d", len(tiles))
		}
		nest, err := kernels.TiledCCSD()
		if err != nil {
			return nil, nil, err
		}
		env, err := kernels.CCSDEnv(n, o, tiles[0], tiles[1], tiles[2], tiles[3], tiles[4], tiles[5])
		return nest, env, err
	}
	return nil, nil, fmt.Errorf("unknown kernel %q (want matmul, matmul-naive, twoindex, twoindexchain, fourindex or ccsd)", kind)
}

// freshSpecOf is the former loopir.SpecOf on testutil's former renderer
// and symbol listing: the canonical spec of a nest at env, walked from the
// nest's fields.
func freshSpecOf(n *loopir.Nest, env expr.Env) *loopir.Spec {
	s := &loopir.Spec{Nest: testutil.FormerUnparse(n)}
	if len(env) > 0 {
		s.Env = map[string]int64{}
		for _, name := range testutil.FormerSymbolNames(n) {
			if v, ok := env[name]; ok {
				s.Env[name] = v
			}
		}
	}
	return s
}

var kernelKinds = []string{"matmul", "matmul-naive", "twoindex", "twoindexchain", "fourindex", "ccsd"}

// kernelCase is one BuildKernel argument list of the oracle comparisons.
type kernelCase struct {
	kind  string
	n     int64
	tiles []int64
}

// kernelCases is every kind at every n from 1 to 512 with default tiles,
// explicit tiles of every tiled kind, and argument lists each check
// rejects.
func kernelCases() []kernelCase {
	var cs []kernelCase
	for _, kind := range kernelKinds {
		for n := int64(1); n <= 512; n++ {
			cs = append(cs, kernelCase{kind, n, nil})
		}
	}
	for _, n := range []int64{1, 2, 16, 64, 100, 256} {
		cs = append(cs,
			kernelCase{"matmul", n, []int64{8, 16, 32}},
			kernelCase{"matmul", n, []int64{1, 1, n}},
			kernelCase{"twoindex", n, []int64{16, 16, 16, 16}},
			kernelCase{"twoindex", n, []int64{64, 8, 4, 2}},
			kernelCase{"ccsd", n, []int64{2, 2, 2, 2, 2, 2}},
			kernelCase{"ccsd", n, []int64{4, 8, 1, 2, 16, 4}},
		)
	}
	return append(cs,
		kernelCase{"nope", 64, nil},
		kernelCase{"matmul", 64, []int64{1, 2}},
		kernelCase{"twoindex", 64, []int64{1, 2, 3}},
		kernelCase{"ccsd", 64, []int64{1}},
		kernelCase{"matmul-naive", 64, []int64{4}},
		kernelCase{"twoindexchain", 64, []int64{4}},
		kernelCase{"fourindex", 64, []int64{4}},
		kernelCase{"matmul", 64, []int64{0, 4, 4}},
		kernelCase{"matmul", 0, nil},
		kernelCase{"twoindex", -4, nil},
	)
}

// TestBuildKernelMatchesFreshBuild: the once-built nest of every kind
// resolves to what a fresh build resolves to, for every n from 1 to 512,
// for explicit tiles and for rejected arguments: the same canonical source,
// symbols, env, spec and key, and the same error text.
func TestBuildKernelMatchesFreshBuild(t *testing.T) {
	for _, c := range kernelCases() {
		name := fmt.Sprintf("%s n=%d tiles=%v", c.kind, c.n, c.tiles)
		nest, env, err := BuildKernel(c.kind, c.n, slices.Clone(c.tiles))
		fnest, fenv, ferr := freshKernel(c.kind, c.n, slices.Clone(c.tiles))
		if fmt.Sprint(err) != fmt.Sprint(ferr) {
			t.Fatalf("%s: error %v, fresh build %v", name, err, ferr)
		}
		if (nest == nil) != (fnest == nil) {
			t.Fatalf("%s: nest %v, fresh nest %v", name, nest != nil, fnest != nil)
		}
		if !maps.Equal(env, fenv) {
			t.Fatalf("%s: env %v, fresh env %v", name, env, fenv)
		}
		if nest == nil {
			continue
		}
		if got, want := loopir.Unparse(nest), testutil.FormerUnparse(fnest); got != want {
			t.Fatalf("%s: source\n%s\nfresh source\n%s", name, got, want)
		}
		if got, want := nest.SymbolNames(), testutil.FormerSymbolNames(fnest); !slices.Equal(got, want) {
			t.Fatalf("%s: symbols %v, fresh symbols %v", name, got, want)
		}
		spec, fspec := loopir.SpecOf(nest, env), freshSpecOf(fnest, fenv)
		if spec.Nest != fspec.Nest || !maps.Equal(spec.Env, fspec.Env) || spec.Key() != fspec.Key() {
			t.Fatalf("%s: spec %+v, fresh spec %+v", name, spec, fspec)
		}
	}
}

// TestBuildKernelSharesOneNest: every call for a kind returns the same
// nest, and a fresh env the caller may change without touching the next
// call's.
func TestBuildKernelSharesOneNest(t *testing.T) {
	for _, kind := range kernelKinds {
		a, envA, err := BuildKernel(kind, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range envA {
			envA[k] = -1
		}
		b, envB, err := BuildKernel(kind, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%s: two calls built two nests", kind)
		}
		if _, want, _ := freshKernel(kind, 64, nil); !maps.Equal(envB, want) {
			t.Errorf("%s: a caller's change to its env reached the next call: %v, want %v", kind, envB, want)
		}
	}
}

// TestBuildKernelConcurrentFirstUse: concurrent calls agree on one nest per
// kind. Under -race it also checks that the first build and the lazily
// rendered source and symbols are published safely.
func TestBuildKernelConcurrentFirstUse(t *testing.T) {
	const workers = 4
	got := make([][]*loopir.Nest, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, kind := range kernelKinds {
				nest, env, err := BuildKernel(kind, int64(16+w), nil)
				if err != nil {
					t.Error(err)
					return
				}
				_ = loopir.SpecOf(nest, env).Key()
				got[w] = append(got[w], nest)
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !slices.Equal(got[w], got[0]) {
			t.Errorf("worker %d saw other nests than worker 0", w)
		}
	}
}
