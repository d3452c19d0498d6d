// Package tce implements the Tensor Contraction Engine substrate the paper's
// optimization lives in (§2): a miniature domain-specific compiler for
// tensor contraction expressions.
//
// A contraction Result = Σ_{contracted indices} Π inputs is
//
//  1. operation-minimized: the multi-tensor product is binarized into a tree
//     of pairwise contractions minimizing floating-point operations
//     (dynamic programming over input subsets, the classic reduction from
//     O(N^8) to O(N^5) for the four-index transform);
//  2. lowered to loopir: each binary contraction becomes an initialization
//     nest plus an accumulation nest, giving an imperfectly nested loop
//     program in exactly the class the cache model analyzes;
//  3. optionally fused: producer/consumer pairs sharing loops are merged so
//     the intermediate loses the fused dimensions (Fig. 1's reduction of T
//     from a matrix to a scalar).
package tce

import (
	"fmt"
	"strings"

	"repro/internal/expr"
)

// Tensor names a tensor and its index labels, e.g. A(i,j).
type Tensor struct {
	Name    string
	Indices []string
}

func (t Tensor) String() string {
	return t.Name + "(" + strings.Join(t.Indices, ",") + ")"
}

// Contraction is Result = Σ_{indices not in Result} Π Inputs.
type Contraction struct {
	Result Tensor
	Inputs []Tensor
}

// IndexRanges binds each index label to its symbolic range.
type IndexRanges map[string]*expr.Expr

// Validate checks that the contraction is well-formed: every result index
// appears in some input, no input repeats an index, and every index has a
// range.
func (c Contraction) Validate(r IndexRanges) error {
	if len(c.Inputs) == 0 {
		return fmt.Errorf("tce: contraction %s has no inputs", c.Result)
	}
	inInputs := map[string]int{}
	for _, in := range c.Inputs {
		seen := map[string]bool{}
		for _, ix := range in.Indices {
			if seen[ix] {
				return fmt.Errorf("tce: input %s repeats index %s", in, ix)
			}
			seen[ix] = true
			inInputs[ix]++
		}
	}
	for _, ix := range c.Result.Indices {
		if inInputs[ix] == 0 {
			return fmt.Errorf("tce: result index %s of %s appears in no input", ix, c.Result)
		}
	}
	for ix := range inInputs {
		if _, ok := r[ix]; !ok {
			return fmt.Errorf("tce: index %s has no range", ix)
		}
	}
	for _, ix := range c.Result.Indices {
		if _, ok := r[ix]; !ok {
			return fmt.Errorf("tce: index %s has no range", ix)
		}
	}
	return nil
}

// NaiveFlops returns the operation count of evaluating the contraction as a
// single nested sum over all indices: 2·(#inputs-1 multiplies + add)
// approximated as 2·#inputs per innermost iteration... the standard
// convention counts 2 flops per multiply-accumulate of the fully expanded
// product, i.e. 2·len(Inputs)·Π ranges for len>1.
func (c Contraction) NaiveFlops(r IndexRanges) *expr.Expr {
	all := map[string]bool{}
	for _, ix := range c.Result.Indices {
		all[ix] = true
	}
	for _, in := range c.Inputs {
		for _, ix := range in.Indices {
			all[ix] = true
		}
	}
	total := expr.Const(int64(2 * (len(c.Inputs) - 1)))
	if len(c.Inputs) == 1 {
		total = expr.Const(2)
	}
	for ix := range all {
		total = expr.Mul(total, r[ix])
	}
	return total
}

// TwoIndexTransform returns the running example of the paper:
// B(m,n) = Σ_{i,j} C1(m,i) · C2(n,j) · A(i,j).
func TwoIndexTransform() (Contraction, IndexRanges) {
	n := expr.Var("N")
	v := expr.Var("V")
	c := Contraction{
		Result: Tensor{Name: "B", Indices: []string{"m", "n"}},
		Inputs: []Tensor{
			{Name: "C1", Indices: []string{"m", "i"}},
			{Name: "C2", Indices: []string{"n", "j"}},
			{Name: "A", Indices: []string{"i", "j"}},
		},
	}
	r := IndexRanges{"i": n, "j": n, "m": v, "n": v}
	return c, r
}

// FourIndexTransform returns the AO→MO integral transform of §2:
// B(a,b,c,d) = Σ_{p,q,r,s} C1(a,p)·C2(b,q)·C3(c,r)·C4(d,s)·A(p,q,r,s).
func FourIndexTransform() (Contraction, IndexRanges) {
	n := expr.Var("N") // AO index range (O+V in the paper)
	v := expr.Var("V") // MO (virtual) index range
	c := Contraction{
		Result: Tensor{Name: "B", Indices: []string{"a", "b", "c", "d"}},
		Inputs: []Tensor{
			{Name: "C1", Indices: []string{"a", "p"}},
			{Name: "C2", Indices: []string{"b", "q"}},
			{Name: "C3", Indices: []string{"c", "r"}},
			{Name: "C4", Indices: []string{"d", "s"}},
			{Name: "A", Indices: []string{"p", "q", "r", "s"}},
		},
	}
	r := IndexRanges{
		"p": n, "q": n, "r": n, "s": n,
		"a": v, "b": v, "c": v, "d": v,
	}
	return c, r
}
