package kernels

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/trace"
)

func TestTiledMatmulBuilds(t *testing.T) {
	nest, err := TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nest.Loops()); got != 6 {
		t.Fatalf("tiled matmul has %d loops, want 6", got)
	}
	env, err := MatmulEnv(32, 4, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckBounds(); err != nil {
		t.Fatal(err)
	}
	n, err := p.Length()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3*32*32*32 {
		t.Fatalf("trace length %d want %d", n, 3*32*32*32)
	}
}

func TestMatmulEnvValidation(t *testing.T) {
	if _, err := MatmulEnv(32, 5, 8, 16); err == nil {
		t.Error("non-dividing tile accepted")
	}
	if _, err := TwoIndexEnv(64, 16, 0, 8, 8); err == nil {
		t.Error("zero tile accepted")
	}
}

func TestTiledTwoIndexBuildsAndTraces(t *testing.T) {
	nest, err := TiledTwoIndex(SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	env, err := TwoIndexEnv(16, 4, 4, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckBounds(); err != nil {
		t.Fatal(err)
	}
	// Trace length: init N^2 + S5 N^2·NJ/TJ?? — compute directly instead:
	// S2: NM·NN = 256; S5: (NI/TI·NN/TN)·TI·TN = NI·NN = 256;
	// S7: 3·NI·NN·NJ = 3·4096; S9: 3·NI·NN·NM = 3·4096.
	want := int64(256 + 256 + 3*16*16*16 + 3*16*16*16)
	n, err := p.Length()
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("trace length %d want %d", n, want)
	}
}

// TestTwoIndexModelVsSimulation validates the analytical model on the
// paper's flagship imperfect nest across cache-size regimes.
func TestTwoIndexModelVsSimulation(t *testing.T) {
	nest, err := TiledTwoIndex(SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	const N = 32
	env, err := TwoIndexEnv(N, 8, 4, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	watches := []int64{4, 16, 64, 150, 400, 1200, 4000, 100000}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.RunBlocks(0, sim.AccessBlock)
	res := sim.Results()
	for i, c := range watches {
		predRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), c)
		if err != nil {
			t.Fatal(err)
		}
		pred := predRep.Total
		simM := res.Misses[i]
		diff := pred - simM
		if diff < 0 {
			diff = -diff
		}
		// Boundary and representative-span slack: a few sub-dominant
		// slices of the N^3-scale trace.
		tol := int64(8*N*N) + simM/8
		if diff > tol {
			t.Errorf("cache %d: predicted %d vs simulated %d (diff %d > tol %d)",
				c, pred, simM, diff, tol)
		}
	}
	// Compulsory misses: 4 N×N arrays + the TI×TN buffer.
	predInfRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	predInf := predInfRep.Total
	wantInf := int64(4*N*N + 8*4)
	if predInf != wantInf {
		t.Errorf("compulsory %d want %d", predInf, wantInf)
	}
	if res.Distinct != wantInf {
		t.Errorf("simulator distinct %d want %d", res.Distinct, wantInf)
	}
}

func TestNativeMatmulTiledMatchesNaive(t *testing.T) {
	const n = 24
	a, b := NewMatrix(n, n), NewMatrix(n, n)
	a.FillSequential(0.5)
	b.FillSequential(0.25)
	c1, c2 := NewMatrix(n, n), NewMatrix(n, n)
	if err := MatmulNaive(a, b, c1); err != nil {
		t.Fatal(err)
	}
	if err := MatmulTiled(a, b, c2, 4, 6, 8); err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(c1, c2); d > 1e-9 {
		t.Fatalf("tiled matmul deviates by %g", d)
	}
	if err := MatmulTiled(a, b, c2, 5, 6, 8); err == nil {
		t.Fatal("non-dividing tile accepted")
	}
}

func TestNativeTwoIndexVariantsAgree(t *testing.T) {
	const n = 16
	a, c1, c2 := NewMatrix(n, n), NewMatrix(n, n), NewMatrix(n, n)
	a.FillSequential(0.1)
	c1.FillSequential(0.2)
	c2.FillSequential(0.3)

	bNaive, tFull, err := TwoIndexNaive(a, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if tFull.Rows != n || tFull.Cols != n {
		t.Fatalf("intermediate shape %dx%d", tFull.Rows, tFull.Cols)
	}
	bFused, err := TwoIndexFused(a, c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(bNaive, bFused); d > 1e-6 {
		t.Fatalf("fused deviates by %g", d)
	}
	bTiled := NewMatrix(n, n)
	if err := TwoIndexTiled(a, c1, c2, bTiled, 4, 8, 4, 8, 0, n); err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(bNaive, bTiled); d > 1e-6 {
		t.Fatalf("tiled deviates by %g", d)
	}
	// Partitioned execution over the iT range accumulates to the same B.
	bPart := NewMatrix(n, n)
	if err := TwoIndexTiled(a, c1, c2, bPart, 4, 8, 4, 8, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := TwoIndexTiled(a, c1, c2, bPart, 4, 8, 4, 8, 8, n); err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(bNaive, bPart); d > 1e-6 {
		t.Fatalf("partitioned execution deviates by %g", d)
	}
}

func TestTiledTwoIndexStatementLabels(t *testing.T) {
	nest, err := TiledTwoIndex(SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, s := range nest.Stmts() {
		labels = append(labels, s.Label)
	}
	want := []string{"S2", "S5", "S7", "S9"}
	if len(labels) != len(want) {
		t.Fatalf("labels %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels %v want %v", labels, want)
		}
	}
}

// TestTwoIndexCrossComponentShape checks the §5.2 example: the reuse of
// T between S5 and S7 has a position-dependent stack distance
// TI·TN + TN·TJ + TJ + a·TJ for a in [0, TI).
func TestTwoIndexCrossComponentShape(t *testing.T) {
	nest, err := TiledTwoIndex(SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	var cross *core.Component
	for _, c := range a.Components {
		if c.Kind == core.CrossStmt && c.Site.Stmt.Label == "S7" &&
			c.Site.Ref().Array == "T" && c.Source.Stmt.Label == "S5" {
			cross = c
			break
		}
	}
	if cross == nil {
		t.Fatalf("no S5→S7 cross component for T:\n%s", a.Table())
	}
	if cross.SD.IsConst() {
		t.Fatalf("S5→S7 T reuse should have variable SD, got %s", cross.SD)
	}
	ti, tj, tn := expr.Var("TI"), expr.Var("TJ"), expr.Var("TN")
	wantBase := expr.Add(expr.Mul(ti, tn), expr.Mul(tn, tj), tj)
	if !cross.SD.Base.Equal(wantBase) {
		t.Errorf("S5→S7 base SD = %s, want %s", cross.SD.Base, wantBase)
	}
	if !cross.SD.Slope.Equal(tj) {
		t.Errorf("S5→S7 SD slope = %s, want TJ", cross.SD.Slope)
	}
	if cross.FreeVar != "iI" || !cross.FreeRange.Equal(ti) {
		t.Errorf("free var %s range %s, want iI range TI", cross.FreeVar, cross.FreeRange)
	}
}
