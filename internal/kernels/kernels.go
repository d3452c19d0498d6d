// Package kernels builds the paper's concrete workloads as loopir nests and
// provides native Go implementations of the same computations.
//
// Two workloads carry the paper's entire evaluation:
//
//   - tiled matrix multiplication (Fig. 2, Tables 1 and 3), a 6-deep perfect
//     nest;
//   - the tiled fused two-index transform (Fig. 6, Tables 2 and 4,
//     Figs. 10–11), the TCE-generated imperfectly nested loop structure
//     B[m,n] = Σ_i C1[m,i] · (Σ_j C2[n,j] · A[i,j]) with the intermediate
//     contracted to a tile-local buffer T[TI,TN].
//
// The IR builders use the symbol conventions of the paper: loop bounds NI,
// NJ, NM, NN (or a single N), tile sizes TI, TJ, TM, TN. The native
// implementations exist so that examples and the SMP executor can run the
// real floating-point computation.
package kernels

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/loopir"
)

// Matmul returns the untiled i-j-k matrix multiplication nest
// C[i,k] += A[i,j] * B[j,k], with symbolic bound N.
func Matmul() (*loopir.Nest, error) {
	n := expr.Var("N")
	return loopir.BuildPerfect(loopir.PerfectNestSpec{
		Name: "matmul",
		Arrays: []*loopir.Array{
			{Name: "A", Dims: []*expr.Expr{n, n}},
			{Name: "B", Dims: []*expr.Expr{n, n}},
			{Name: "C", Dims: []*expr.Expr{n, n}},
		},
		Indices: []string{"i", "j", "k"},
		Trips:   []*expr.Expr{n, n, n},
		Stmt:    matmulStmt(),
	})
}

func matmulStmt() *loopir.Stmt {
	return &loopir.Stmt{
		Label: "S1",
		Flops: 2,
		Refs: []loopir.Ref{
			{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("j")}},
			{Array: "B", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("j"), loopir.Idx("k")}},
			{Array: "C", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("k")}},
		},
	}
}

// TiledMatmul returns the 6-deep tiled matrix multiplication of Fig. 2:
// loops (iT, jT, kT, iI, jI, kI) with tile-size symbols TI, TJ, TK.
func TiledMatmul() (*loopir.Nest, error) {
	n := expr.Var("N")
	spec := loopir.PerfectNestSpec{
		Name: "matmul",
		Arrays: []*loopir.Array{
			{Name: "A", Dims: []*expr.Expr{n, n}},
			{Name: "B", Dims: []*expr.Expr{n, n}},
			{Name: "C", Dims: []*expr.Expr{n, n}},
		},
		Indices: []string{"i", "j", "k"},
		Trips:   []*expr.Expr{n, n, n},
		Stmt:    matmulStmt(),
	}
	return loopir.TilePerfect(spec, []loopir.TileSpec{
		loopir.DefaultTileSpec("i", n),
		loopir.DefaultTileSpec("j", n),
		loopir.DefaultTileSpec("k", n),
	})
}

// TwoIndexBounds names the four index ranges of the two-index transform.
// The paper's experiments use NI = NJ = NM = NN.
type TwoIndexBounds struct {
	NI, NJ, NM, NN *expr.Expr
}

// SymbolicTwoIndexBounds returns bounds as the symbols NI, NJ, NM, NN.
func SymbolicTwoIndexBounds() TwoIndexBounds {
	return TwoIndexBounds{
		NI: expr.Var("NI"), NJ: expr.Var("NJ"),
		NM: expr.Var("NM"), NN: expr.Var("NN"),
	}
}

// TiledTwoIndex builds the tiled fused two-index transform of Fig. 6:
//
//	S2: FOR mT, nT { FOR mI, nI:          B[mT+mI, nT+nI] = 0 }
//	    FOR iT, nT {
//	S5:     FOR iI, nI:                   T[iI, nI] = 0
//	S7:     FOR jT { FOR iI, nI, jI:      T[iI,nI] += A[iT+iI, jT+jI] * C2[nT+nI, jT+jI] }
//	S9:     FOR mT { FOR iI, nI, mI:      B[mT+mI, nT+nI] += T[iI,nI] * C1[mT+mI, iT+iI] }
//	    }
//
// Tile-size symbols are TI, TJ, TM, TN; the intermediate T is a tile-local
// TI×TN buffer. Statement labels match the paper's numbering.
func TiledTwoIndex(b TwoIndexBounds) (*loopir.Nest, error) {
	ti, tj, tm, tn := expr.Var("TI"), expr.Var("TJ"), expr.Var("TM"), expr.Var("TN")
	arrays := []*loopir.Array{
		{Name: "A", Dims: []*expr.Expr{b.NI, b.NJ}},
		{Name: "B", Dims: []*expr.Expr{b.NM, b.NN}},
		{Name: "C1", Dims: []*expr.Expr{b.NM, b.NI}},
		{Name: "C2", Dims: []*expr.Expr{b.NN, b.NJ}},
		{Name: "T", Dims: []*expr.Expr{ti, tn}},
	}
	bRef := func(mode loopir.AccessMode) loopir.Ref {
		return loopir.Ref{Array: "B", Mode: mode, Subs: []loopir.Subscript{
			loopir.TilePair("mT", tm, "mI"),
			loopir.TilePair("nT", tn, "nI"),
		}}
	}
	tRef := func(mode loopir.AccessMode) loopir.Ref {
		return loopir.Ref{Array: "T", Mode: mode, Subs: []loopir.Subscript{
			loopir.Idx("iI"), loopir.Idx("nI"),
		}}
	}
	s2 := &loopir.Stmt{Label: "S2", Refs: []loopir.Ref{bRef(loopir.Write)}}
	s5 := &loopir.Stmt{Label: "S5", Refs: []loopir.Ref{tRef(loopir.Write)}}
	s7 := &loopir.Stmt{Label: "S7", Flops: 2, Refs: []loopir.Ref{
		tRef(loopir.Update),
		{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{
			loopir.TilePair("iT", ti, "iI"),
			loopir.TilePair("jT", tj, "jI"),
		}},
		{Array: "C2", Mode: loopir.Read, Subs: []loopir.Subscript{
			loopir.TilePair("nT", tn, "nI"),
			loopir.TilePair("jT", tj, "jI"),
		}},
	}}
	s9 := &loopir.Stmt{Label: "S9", Flops: 2, Refs: []loopir.Ref{
		bRef(loopir.Update),
		tRef(loopir.Read),
		{Array: "C1", Mode: loopir.Read, Subs: []loopir.Subscript{
			loopir.TilePair("mT", tm, "mI"),
			loopir.TilePair("iT", ti, "iI"),
		}},
	}}

	loop := func(idx string, trip *expr.Expr, body ...loopir.Node) *loopir.Loop {
		return &loopir.Loop{Index: idx, Trip: trip, Body: body}
	}
	nTiles := func(n *expr.Expr, t *expr.Expr) *expr.Expr { return expr.CeilDiv(n, t) }

	root := []loopir.Node{
		loop("mT", nTiles(b.NM, tm),
			loop("nT", nTiles(b.NN, tn),
				loop("mI", tm,
					loop("nI", tn, s2)))),
		loop("iT", nTiles(b.NI, ti),
			loop("nT", nTiles(b.NN, tn),
				loop("iI", ti, loop("nI", tn, s5)),
				loop("jT", nTiles(b.NJ, tj),
					loop("iI", ti, loop("nI", tn, loop("jI", tj, s7)))),
				loop("mT", nTiles(b.NM, tm),
					loop("iI", ti, loop("nI", tn, loop("mI", tm, s9)))))),
	}
	return loopir.NewNest("two-index-tiled", arrays, root)
}

// TwoIndexEnv builds the evaluation environment for the two-index transform
// with a common bound n and tile sizes (ti, tj, tm, tn). It returns an error
// if a tile size does not divide the bound (the model assumes exact tiling,
// as does the paper).
func TwoIndexEnv(n, ti, tj, tm, tn int64) (expr.Env, error) {
	for _, t := range []int64{ti, tj, tm, tn} {
		if t <= 0 || n%t != 0 {
			return nil, fmt.Errorf("kernels: tile %d does not divide bound %d", t, n)
		}
	}
	return expr.Env{
		"NI": n, "NJ": n, "NM": n, "NN": n,
		"TI": ti, "TJ": tj, "TM": tm, "TN": tn,
	}, nil
}

// TwoIndexEnvDims builds the environment with distinct per-index bounds
// (Table 2's last row uses bounds (512, 256, 256, 512)).
func TwoIndexEnvDims(ni, nj, nm, nn, ti, tj, tm, tn int64) (expr.Env, error) {
	for _, p := range [][2]int64{{ni, ti}, {nj, tj}, {nm, tm}, {nn, tn}} {
		if p[1] <= 0 || p[0]%p[1] != 0 {
			return nil, fmt.Errorf("kernels: tile %d does not divide bound %d", p[1], p[0])
		}
	}
	return expr.Env{
		"NI": ni, "NJ": nj, "NM": nm, "NN": nn,
		"TI": ti, "TJ": tj, "TM": tm, "TN": tn,
	}, nil
}

// MatmulEnv builds the environment for the tiled matmul.
func MatmulEnv(n, ti, tj, tk int64) (expr.Env, error) {
	for _, t := range []int64{ti, tj, tk} {
		if t <= 0 || n%t != 0 {
			return nil, fmt.Errorf("kernels: tile %d does not divide bound %d", t, n)
		}
	}
	return expr.Env{"N": n, "TI": ti, "TJ": tj, "TK": tk}, nil
}
