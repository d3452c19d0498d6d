package evalbench

import "testing"

func workload(tb testing.TB) *Workload {
	tb.Helper()
	w, err := Matmul(64, []int64{8, 8, 8})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// TestTreeCompiledChecksumsMatch: the two evaluation paths must agree on
// every expression — the property the benchmark pair depends on to be a
// fair comparison (same inputs, same outputs, different machinery).
func TestTreeCompiledChecksumsMatch(t *testing.T) {
	w := workload(t)
	tree, err := w.EvalTree()
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := w.EvalCompiled()
	if err != nil {
		t.Fatal(err)
	}
	if tree != compiled {
		t.Errorf("tree checksum %d != compiled checksum %d over %d exprs", tree, compiled, w.NumExprs())
	}
	if w.NumExprs() == 0 {
		t.Error("workload has no expressions")
	}
}

func BenchmarkExprTree(b *testing.B) {
	w := workload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.EvalTree(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExprCompiled(b *testing.B) {
	w := workload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.EvalCompiled(); err != nil {
			b.Fatal(err)
		}
	}
}
