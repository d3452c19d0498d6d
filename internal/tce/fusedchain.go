package tce

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/loopir"
)

// TransformStep is a normalized step of an index-transform chain: the
// carried tensor (the seed, or the previous step's output) is contracted
// over Sum with a rank-2 matrix, introducing index New:
//
//	Out = Σ_{Sum} Matrix(New, Sum) · Carried
type TransformStep struct {
	Out     Tensor
	Carried Tensor
	Matrix  Tensor
	Sum     string
	New     string
}

// NormalizeChain validates that the binary steps form an index-transform
// chain (each step contracts exactly one index of the running intermediate
// with a rank-2 matrix) and returns the normalized steps. Both the
// two-index and four-index transforms of the paper have this shape after
// operation minimization. When the first step's operands are both rank-2
// (the two-index transform), either can serve as the seed; the assignment
// that yields a valid chain (no "new" index is contracted later) is chosen.
func NormalizeChain(steps []BinaryStep) ([]TransformStep, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("tce: empty chain")
	}
	first, err := normalizeWith(steps, false)
	if err == nil {
		return first, nil
	}
	second, err2 := normalizeWith(steps, true)
	if err2 == nil {
		return second, nil
	}
	return nil, err
}

func normalizeWith(steps []BinaryStep, swapFirst bool) ([]TransformStep, error) {
	var out []TransformStep
	prevOut := ""
	for k, st := range steps {
		if len(st.SumIndices) != 1 {
			return nil, fmt.Errorf("tce: step %d contracts %v, transform chains contract one index per step",
				k, st.SumIndices)
		}
		sum := st.SumIndices[0]
		isMatrix := func(t Tensor) bool {
			return len(t.Indices) == 2 && (t.Indices[0] == sum || t.Indices[1] == sum)
		}
		carried, matrix := st.In1, st.In2
		if k > 0 {
			switch prevOut {
			case st.In2.Name:
				carried, matrix = st.In2, st.In1
			case st.In1.Name:
				// already assigned
			default:
				return nil, fmt.Errorf("tce: step %d does not consume the previous intermediate %s", k, prevOut)
			}
		} else {
			// Default: the higher-rank operand is the seed.
			if len(st.In1.Indices) < len(st.In2.Indices) {
				carried, matrix = st.In2, st.In1
			}
			if swapFirst {
				carried, matrix = matrix, carried
			}
		}
		if !isMatrix(matrix) {
			return nil, fmt.Errorf("tce: step %d operand %s is not a transform matrix over %s", k, matrix, sum)
		}
		newIdx := matrix.Indices[0]
		if newIdx == sum {
			newIdx = matrix.Indices[1]
		}
		hasSum := false
		for _, ix := range carried.Indices {
			if ix == sum {
				hasSum = true
			}
		}
		if !hasSum {
			return nil, fmt.Errorf("tce: step %d sum index %s absent from carried tensor %s", k, sum, carried)
		}
		out = append(out, TransformStep{
			Out: st.Out, Carried: carried, Matrix: matrix, Sum: sum, New: newIdx,
		})
		prevOut = st.Out.Name
	}
	// Chain validity: no step's new index may be contracted later (it must
	// survive into the final output), otherwise the fused loop structure
	// would nest a loop inside itself.
	contracted := map[string]bool{}
	for _, c := range out {
		contracted[c.Sum] = true
	}
	for k, c := range out {
		if contracted[c.New] {
			return nil, fmt.Errorf("tce: step %d introduces %s which a later step contracts", k, c.New)
		}
	}
	return out, nil
}

// GenFusedTransformChain generates the fully fused loop program for an
// index-transform chain — the generalization of Fig. 1(c) that, for the
// four-index transform, produces the classic TCE structure
//
//	for a { B[a,*,*,*] = 0
//	  for s { T3[*,*] = 0        // only inside: see below
//	    for r { T2[*] = 0
//	      for q { T1 = 0
//	        for p { T1 += C1[a,p]·A[p,q,r,s] }
//	        for b { T2[b] += C2[b,q]·T1 } }
//	      for b,c { T3[b,c] += C3[c,r]·T2[b] } }
//	    for b,c,d { B[a,b,c,d] += C4[d,s]·T3[b,c] } } }
//
// reducing intermediate storage from three O(N⁴) arrays to 1 + V + V²
// elements. The generated program is in the analyzable class.
func GenFusedTransformChain(name string, steps []BinaryStep, r IndexRanges) (*loopir.Nest, error) {
	chain, err := NormalizeChain(steps)
	if err != nil {
		return nil, err
	}
	K := len(chain)
	seed := chain[0].Carried

	// Survivor indices of the seed: not contracted by any step.
	contracted := map[string]bool{}
	for _, c := range chain {
		contracted[c.Sum] = true
	}
	var survivors []string
	for _, ix := range seed.Indices {
		if !contracted[ix] {
			survivors = append(survivors, ix)
		}
	}

	// Arrays: seed, matrices, buffers. Buffer k (0-based step k) holds
	// dims new_2..new_{k+1} (chain[1..k].New); the last "buffer" is the
	// real output.
	arrays := map[string]*loopir.Array{}
	declare := func(t Tensor) error {
		dims := make([]*expr.Expr, len(t.Indices))
		for i, ix := range t.Indices {
			rng, ok := r[ix]
			if !ok {
				return fmt.Errorf("tce: no range for index %s", ix)
			}
			dims[i] = rng
		}
		if len(dims) == 0 {
			dims = []*expr.Expr{expr.One()}
		}
		if _, dup := arrays[t.Name]; !dup {
			arrays[t.Name] = &loopir.Array{Name: t.Name, Dims: dims}
		}
		return nil
	}
	if err := declare(seed); err != nil {
		return nil, err
	}
	for _, c := range chain {
		if err := declare(c.Matrix); err != nil {
			return nil, err
		}
	}
	// Buffer tensors: bufDims[k] = indices of chain[1..k].New.
	bufDims := make([][]string, K)
	bufName := make([]string, K)
	for k := 0; k < K; k++ {
		for j := 1; j <= k; j++ {
			bufDims[k] = append(bufDims[k], chain[j].New)
		}
		if k == K-1 {
			bufName[k] = chain[k].Out.Name
			// The real output keeps its declared index order.
			if err := declare(chain[k].Out); err != nil {
				return nil, err
			}
		} else {
			bufName[k] = chain[k].Out.Name
			if err := declare(Tensor{Name: bufName[k], Indices: bufDims[k]}); err != nil {
				return nil, err
			}
		}
	}

	subs := func(t Tensor) []loopir.Subscript {
		if len(t.Indices) == 0 {
			return []loopir.Subscript{loopir.ConstIdx()}
		}
		out := make([]loopir.Subscript, len(t.Indices))
		for i, ix := range t.Indices {
			out[i] = loopir.Idx(ix)
		}
		return out
	}
	bufTensor := func(k int) Tensor {
		if k == K-1 {
			return chain[k].Out
		}
		return Tensor{Name: bufName[k], Indices: bufDims[k]}
	}
	nestLoops := func(indices []string, inner []loopir.Node) []loopir.Node {
		nodes := inner
		for i := len(indices) - 1; i >= 0; i-- {
			nodes = []loopir.Node{&loopir.Loop{Index: indices[i], Trip: r[indices[i]], Body: nodes}}
		}
		return nodes
	}
	stmtNo := 0
	mkStmt := func(flops int, refs ...loopir.Ref) *loopir.Stmt {
		stmtNo++
		return &loopir.Stmt{Label: fmt.Sprintf("F%d", stmtNo), Flops: flops, Refs: refs}
	}

	// block(k) emits: init buf_k; for σ_k { block(k-1) | seed-accumulate };
	// accumulate buf_k from buf_{k-1}.
	var block func(k int) []loopir.Node
	block = func(k int) []loopir.Node {
		c := chain[k]
		buf := bufTensor(k)
		init := nestLoops(bufDims[k],
			[]loopir.Node{mkStmt(0, loopir.Ref{Array: buf.Name, Mode: loopir.Write, Subs: subs(buf)})})
		var inner []loopir.Node
		if k == 0 {
			inner = []loopir.Node{mkStmt(2,
				loopir.Ref{Array: c.Matrix.Name, Mode: loopir.Read, Subs: subs(c.Matrix)},
				loopir.Ref{Array: seed.Name, Mode: loopir.Read, Subs: subs(seed)},
				loopir.Ref{Array: buf.Name, Mode: loopir.Update, Subs: subs(buf)},
			)}
		} else {
			prev := bufTensor(k - 1)
			acc := nestLoops(bufDims[k], []loopir.Node{mkStmt(2,
				loopir.Ref{Array: c.Matrix.Name, Mode: loopir.Read, Subs: subs(c.Matrix)},
				loopir.Ref{Array: prev.Name, Mode: loopir.Read, Subs: subs(prev)},
				loopir.Ref{Array: buf.Name, Mode: loopir.Update, Subs: subs(buf)},
			)})
			inner = append(block(k-1), acc...)
		}
		body := append(init,
			&loopir.Loop{Index: c.Sum, Trip: r[c.Sum], Body: inner})
		return body
	}

	outer := append([]string{chain[0].New}, survivors...)
	root := nestLoops(outer, block(K-1))
	var decls []*loopir.Array
	for _, a := range arrays {
		decls = append(decls, a)
	}
	return loopir.NewNest(name, decls, root)
}
