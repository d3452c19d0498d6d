package experiments

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/loopir"
	"repro/internal/tce"
)

// BuildKernel returns one of the built-in kernels with a common loop bound
// and tile sizes:
//
//	matmul     — 6-deep tiled matrix multiplication (3 tiles)
//	twoindex   — tiled fused two-index transform, Fig. 6 (4 tiles)
//	fourindex  — fully fused four-index transform chain (no tiles; n is the
//	             AO range, the MO range is n/2)
//	ccsd       — tiled CCSD doubles contraction R += W·T2 (6 tiles; n is
//	             the virtual range, the occupied range is n/2)
//
// Two untiled kinds exist for the joint transformation search, which wants
// structural freedom rather than pre-baked tiling:
//
//	matmul-naive  — the plain 3-loop matmul (no tiles)
//	twoindexchain — the unfused two-index transform chain, Fig. 5 (no
//	                tiles; n is the AO range, the MO range is n/2)
//
// A kind's nest does not depend on n or the tiles, which only set the
// returned env, a fresh map the caller owns. The nest is built once per
// process, on the first call for its kind, and every later call returns
// the same *loopir.Nest. Like every nest it is immutable (see
// loopir.NewNest): callers read, analyze and transform it, and never
// modify it.
func BuildKernel(kind string, n int64, tiles []int64) (*loopir.Nest, expr.Env, error) {
	build, ok := kernelNests[kind]
	if !ok {
		return nil, nil, fmt.Errorf("unknown kernel %q (want matmul, matmul-naive, twoindex, twoindexchain, fourindex or ccsd)", kind)
	}
	var env expr.Env
	var err error
	switch kind {
	case "matmul-naive":
		if len(tiles) != 0 {
			return nil, nil, fmt.Errorf("matmul-naive takes no tile sizes (untiled form)")
		}
		env = expr.Env{"N": n}
	case "twoindexchain":
		if len(tiles) != 0 {
			return nil, nil, fmt.Errorf("twoindexchain takes no tile sizes (untiled form)")
		}
		env = expr.Env{"N": n, "V": max(n/2, 1)}
	case "fourindex":
		if len(tiles) != 0 {
			return nil, nil, fmt.Errorf("fourindex takes no tile sizes (fully fused form)")
		}
		env = expr.Env{"N": n, "V": max(n/2, 1)}
	case "matmul":
		if len(tiles) == 0 {
			tiles = defaultTiles([]int64{n, n, n}, []int64{32, 32, 32})
		}
		if len(tiles) != 3 {
			return nil, nil, fmt.Errorf("matmul needs 3 tile sizes, got %d", len(tiles))
		}
		env, err = kernels.MatmulEnv(n, tiles[0], tiles[1], tiles[2])
	case "twoindex":
		if len(tiles) == 0 {
			tiles = defaultTiles([]int64{n, n, n, n}, []int64{64, 16, 16, 64})
		}
		if len(tiles) != 4 {
			return nil, nil, fmt.Errorf("twoindex needs 4 tile sizes, got %d", len(tiles))
		}
		env, err = kernels.TwoIndexEnv(n, tiles[0], tiles[1], tiles[2], tiles[3])
	case "ccsd":
		o := max(n/2, 1)
		if len(tiles) == 0 {
			tiles = defaultTiles([]int64{n, n, o, o, n, n}, []int64{n / 4, n / 4, o / 2, o / 2, n / 4, n / 4})
		}
		if len(tiles) != 6 {
			return nil, nil, fmt.Errorf("ccsd needs 6 tile sizes (TA,TB,TI,TJ,TC,TD), got %d", len(tiles))
		}
		env, err = kernels.CCSDEnv(n, o, tiles[0], tiles[1], tiles[2], tiles[3], tiles[4], tiles[5])
	}
	nest, berr := build()
	if berr != nil {
		return nil, nil, berr
	}
	return nest, env, err
}

// kernelNests builds each built-in kernel's nest once, on first use: the
// nest depends on the kind alone. The table is fixed; nothing a caller
// passes enters it.
var kernelNests = map[string]func() (*loopir.Nest, error){
	"matmul-naive": sync.OnceValues(kernels.Matmul),
	"twoindexchain": sync.OnceValues(func() (*loopir.Nest, error) {
		return tce.UnfusedTwoIndex(nil)
	}),
	"matmul": sync.OnceValues(kernels.TiledMatmul),
	"twoindex": sync.OnceValues(func() (*loopir.Nest, error) {
		return kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	}),
	"fourindex": sync.OnceValues(func() (*loopir.Nest, error) {
		// The chain's operation-minimal tree is chosen at fixed bindings,
		// whatever n is, so the nest depends on the kind alone.
		c, r := tce.FourIndexTransform()
		tree, err := tce.OpMin(c, r, expr.Env{"N": 64, "V": 32})
		if err != nil {
			return nil, err
		}
		return tce.GenFusedTransformChain("four-index-fused", tree.Sequence(), r)
	}),
	"ccsd": sync.OnceValues(kernels.TiledCCSD),
}

// defaultTiles returns the default tile sizes of a kernel request without
// tiles: each preferred size, at least 1, reduced to its gcd with the
// positive loop bound it tiles, so that it divides the bound. A preferred
// size that already divides its bound is kept.
func defaultTiles(bounds, preferred []int64) []int64 {
	out := make([]int64, len(preferred))
	for i, t := range preferred {
		t = max(t, 1)
		for n := bounds[i]; n > 0; {
			t, n = n, t%n
		}
		out[i] = t
	}
	return out
}

// LoadNestFile parses a loop nest from the textual format (see
// loopir.Parse) and binds its symbols from defines.
func LoadNestFile(path string, defines map[string]int64) (*loopir.Nest, expr.Env, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	nest, err := loopir.Parse(string(src))
	if err != nil {
		return nil, nil, err
	}
	env := expr.Env{}
	for k, v := range defines {
		env[k] = v
	}
	if err := nest.ValidateEnv(env); err != nil {
		return nil, nil, fmt.Errorf("%w (bind symbols with -D name=value)", err)
	}
	return nest, env, nil
}

// ParseDefines parses repeated "name=value" definitions.
func ParseDefines(defs []string) (map[string]int64, error) {
	out := map[string]int64{}
	for _, d := range defs {
		parts := strings.SplitN(d, "=", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad define %q (want name=value)", d)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad define value %q", d)
		}
		out[strings.TrimSpace(parts[0])] = v
	}
	return out, nil
}

// ParseTiles parses a comma-separated tile list ("" yields nil).
func ParseTiles(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad tile size %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// ParseCacheKB parses a -cache-kb list of cache sizes in KB. Parts are
// trimmed and empty ones skipped; a value that is not a positive integer,
// or a list left empty, is an error.
func ParseCacheKB(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kb, err := strconv.ParseInt(part, 10, 64)
		if err != nil || kb <= 0 {
			return nil, fmt.Errorf("bad -cache-kb value %q", part)
		}
		out = append(out, kb)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -cache-kb list")
	}
	return out, nil
}
