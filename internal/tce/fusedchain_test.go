package tce

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/trace"
)

func chainOf(t *testing.T, c Contraction, r IndexRanges, rank expr.Env) []BinaryStep {
	t.Helper()
	tree, err := OpMin(c, r, rank)
	if err != nil {
		t.Fatal(err)
	}
	return tree.Sequence()
}

func TestNormalizeChainTwoIndex(t *testing.T) {
	c, r := TwoIndexTransform()
	steps := chainOf(t, c, r, expr.Env{"N": 100, "V": 100})
	chain, err := NormalizeChain(steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("%d chain steps", len(chain))
	}
	contracted := map[string]bool{chain[0].Sum: true, chain[1].Sum: true}
	for k, st := range chain {
		if contracted[st.New] {
			t.Errorf("step %d new index %s is contracted later", k, st.New)
		}
	}
}

func TestNormalizeChainFourIndex(t *testing.T) {
	c, r := FourIndexTransform()
	steps := chainOf(t, c, r, expr.Env{"N": 64, "V": 32})
	chain, err := NormalizeChain(steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 4 {
		t.Fatalf("%d chain steps", len(chain))
	}
	// Seed must be the rank-4 integral tensor.
	if chain[0].Carried.Name != "A" {
		t.Errorf("seed is %s, want A", chain[0].Carried)
	}
	for k, st := range chain {
		if st.Matrix.Name[0] != 'C' {
			t.Errorf("step %d matrix %s", k, st.Matrix)
		}
	}
}

func TestFusedChainMemoryFourIndex(t *testing.T) {
	c, r := FourIndexTransform()
	steps := chainOf(t, c, r, expr.Env{"N": 64, "V": 32})
	chain, err := NormalizeChain(steps)
	if err != nil {
		t.Fatal(err)
	}
	mem := FusedChainMemory(chain, r)
	got, err := mem.Eval(expr.Env{"N": 64, "V": 32})
	if err != nil {
		t.Fatal(err)
	}
	// Buffers: scalar + V + V² = 1 + 32 + 1024.
	if got != 1+32+1024 {
		t.Fatalf("fused memory %d want %d (expr %s)", got, 1+32+1024, mem)
	}
	// Unfused: the three intermediates hold V·N³, V²·N², V³·N elements.
	unfused := int64(32*64*64*64 + 32*32*64*64 + 32*32*32*64)
	if got*1000 > unfused {
		t.Fatalf("fusion saves less than 1000x: %d vs %d", got, unfused)
	}
}

// TestFusedTwoIndexChainComputesCorrectly: execute the generated fused
// program numerically and compare with the native reference.
func TestFusedTwoIndexChainComputesCorrectly(t *testing.T) {
	c, r := TwoIndexTransform()
	steps := chainOf(t, c, r, expr.Env{"N": 100, "V": 100})
	nest, err := GenFusedTransformChain("two-index-fused-chain", steps, r)
	if err != nil {
		t.Fatal(err)
	}
	const n, v = 12, 8
	env := expr.Env{"N": n, "V": v}
	ex, err := trace.NewExecutor(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	a := kernels.NewMatrix(n, n)
	c1 := kernels.NewMatrix(v, n)
	c2 := kernels.NewMatrix(v, n)
	a.FillSequential(0.1)
	c1.FillSequential(0.2)
	c2.FillSequential(0.3)
	for name, m := range map[string]*kernels.Matrix{"A": a, "C1": c1, "C2": c2} {
		if err := ex.SetArray(name, m.Data); err != nil {
			t.Fatal(err)
		}
	}
	ex.Run()
	got, err := ex.Array("B")
	if err != nil {
		t.Fatal(err)
	}
	want, err := kernels.TwoIndexFused(a, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		d := got[i] - want.Data[i]
		if d < 0 {
			d = -d
		}
		if d > 1e-6 {
			t.Fatalf("B[%d] = %g want %g", i, got[i], want.Data[i])
		}
	}
}

// TestFusedFourIndexChainComputesCorrectly: the generated fused four-index
// program matches direct 8-loop evaluation at a tiny size.
func TestFusedFourIndexChainComputesCorrectly(t *testing.T) {
	c, r := FourIndexTransform()
	steps := chainOf(t, c, r, expr.Env{"N": 64, "V": 32})
	nest, err := GenFusedTransformChain("four-index-fused-chain", steps, r)
	if err != nil {
		t.Fatal(err)
	}
	const n, v = 4, 3
	env := expr.Env{"N": n, "V": v}
	ex, err := trace.NewExecutor(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(rows, cols int, scale float64) []float64 {
		out := make([]float64, rows*cols)
		for i := range out {
			out[i] = scale * float64(i%13+1)
		}
		return out
	}
	A := mk(n*n, n*n, 0.01) // rank-4 (p,q,r,s) flattened
	C1 := mk(v, n, 0.1)
	C2 := mk(v, n, 0.2)
	C3 := mk(v, n, 0.3)
	C4 := mk(v, n, 0.4)
	for name, data := range map[string][]float64{"A": A, "C1": C1, "C2": C2, "C3": C3, "C4": C4} {
		if err := ex.SetArray(name, data); err != nil {
			t.Fatal(err)
		}
	}
	ex.Run()
	got, err := ex.Array("B")
	if err != nil {
		t.Fatal(err)
	}
	// Direct O(V^4 N^4) evaluation.
	want := make([]float64, v*v*v*v)
	at4 := func(x []float64, i, j, k, l, d int) float64 {
		return x[((i*d+j)*d+k)*d+l]
	}
	for a1 := 0; a1 < v; a1++ {
		for b := 0; b < v; b++ {
			for cc := 0; cc < v; cc++ {
				for d := 0; d < v; d++ {
					var s float64
					for p := 0; p < n; p++ {
						for q := 0; q < n; q++ {
							for rr := 0; rr < n; rr++ {
								for ss := 0; ss < n; ss++ {
									s += C1[a1*n+p] * C2[b*n+q] * C3[cc*n+rr] * C4[d*n+ss] *
										at4(A, p, q, rr, ss, n)
								}
							}
						}
					}
					want[((a1*v+b)*v+cc)*v+d] = s
				}
			}
		}
	}
	for i := range got {
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		if d > 1e-6*(1+want[i]) && d > 1e-6 {
			t.Fatalf("B[%d] = %g want %g", i, got[i], want[i])
		}
	}
}

// TestFusedFourIndexAnalyzable: the generated fused program is in the model
// class and its predictions track exact simulation.
func TestFusedFourIndexAnalyzable(t *testing.T) {
	c, r := FourIndexTransform()
	steps := chainOf(t, c, r, expr.Env{"N": 64, "V": 32})
	nest, err := GenFusedTransformChain("four-index-fused-chain", steps, r)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env := expr.Env{"N": 6, "V": 4}
	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckBounds(); err != nil {
		t.Fatal(err)
	}
	watches := []int64{8, 64, 512, 1 << 30}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.RunBlocks(0, sim.AccessBlock)
	res := sim.Results()
	total, _ := p.Length()
	for i, cap := range watches {
		predRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), cap)
		if err != nil {
			t.Fatal(err)
		}
		pred := predRep.Total
		diff := pred - res.Misses[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > total/5+300 {
			t.Errorf("cap %d: predicted %d vs simulated %d (trace %d)", cap, pred, res.Misses[i], total)
		}
	}
	predInfRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	predInf := predInfRep.Total
	if predInf != res.Distinct {
		t.Errorf("compulsory %d vs distinct %d", predInf, res.Distinct)
	}
}

func TestNormalizeChainRejectsNonChain(t *testing.T) {
	// Two sum indices in one step.
	steps := []BinaryStep{{
		Out:        Tensor{Name: "O", Indices: []string{"a"}},
		In1:        Tensor{Name: "X", Indices: []string{"a", "i", "j"}},
		In2:        Tensor{Name: "Y", Indices: []string{"i", "j"}},
		SumIndices: []string{"i", "j"},
	}}
	if _, err := NormalizeChain(steps); err == nil {
		t.Fatal("multi-index contraction accepted")
	}
	// Second step not consuming the first's output.
	c, r := TwoIndexTransform()
	good := chainOf(t, c, r, expr.Env{"N": 10, "V": 10})
	bad := []BinaryStep{good[0], good[0]}
	if _, err := NormalizeChain(bad); err == nil {
		t.Fatal("broken chain accepted")
	}
}

// FusedChainMemory returns the symbolic total buffer footprint of the fused
// chain: intermediate k keeps only the new indices of steps 2..k (the
// outermost new index and the surviving seed indices are bound by enclosing
// loops). The final output is excluded (it must be materialized anyway).
func FusedChainMemory(chain []TransformStep, r IndexRanges) *expr.Expr {
	total := expr.Zero()
	for k := 0; k < len(chain)-1; k++ {
		size := expr.One()
		for j := 1; j <= k; j++ {
			size = expr.Mul(size, r[chain[j].New])
		}
		total = expr.Add(total, size)
	}
	return total
}
