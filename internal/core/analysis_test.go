package core

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/expr"
	"repro/internal/loopir"
	"repro/internal/trace"
)

// matmulNest builds the untiled i-j-k matrix multiplication.
func matmulNest(t *testing.T) *loopir.Nest {
	t.Helper()
	n := expr.Var("N")
	nest, err := loopir.BuildPerfect(loopir.PerfectNestSpec{
		Name: "matmul",
		Arrays: []*loopir.Array{
			{Name: "A", Dims: []*expr.Expr{n, n}},
			{Name: "B", Dims: []*expr.Expr{n, n}},
			{Name: "C", Dims: []*expr.Expr{n, n}},
		},
		Indices: []string{"i", "j", "k"},
		Trips:   []*expr.Expr{n, n, n},
		Stmt: &loopir.Stmt{
			Label: "S1",
			Refs: []loopir.Ref{
				{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("j")}},
				{Array: "B", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("j"), loopir.Idx("k")}},
				{Array: "C", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("k")}},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nest
}

// simulateMisses runs the exact trace through the stack simulator.
func simulateMisses(t *testing.T, nest *loopir.Nest, env expr.Env, watches []int64) cachesim.Results {
	t.Helper()
	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.RunBlocks(0, sim.AccessBlock)
	return sim.Results()
}

func findComp(t *testing.T, a *Analysis, siteKey string, kind ComponentKind, carrier string) *Component {
	t.Helper()
	for _, c := range a.ComponentsFor(siteKey) {
		if c.Kind != kind {
			continue
		}
		if kind == SelfCarried && c.Carrier.Index != carrier {
			continue
		}
		return c
	}
	t.Fatalf("no component %s/%v/%s; have:\n%s", siteKey, kind, carrier, a.Table())
	return nil
}

func TestMatmulComponentInventory(t *testing.T) {
	nest := matmulNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	n := expr.Var("N")
	n2 := expr.Mul(n, n)

	// A[i,j]: self reuse carried by k with SD 3 (one element each of A, B,
	// C per innermost iteration), plus N^2 first touches.
	selfA := findComp(t, a, "S1#0", SelfCarried, "k")
	if !selfA.SD.Base.Equal(expr.Const(3)) || !selfA.SD.IsConst() {
		t.Errorf("A self SD = %s, want 3", selfA.SD)
	}
	if want := expr.Mul(n2, expr.Sub(n, expr.One())); !selfA.Count.Equal(want) {
		t.Errorf("A self count = %s, want %s", selfA.Count, want)
	}
	ftA := findComp(t, a, "S1#0", FirstTouch, "")
	if !ftA.Count.Equal(n2) {
		t.Errorf("A first-touch count = %s, want N^2", ftA.Count)
	}

	// B[j,k]: carried by outermost i: SD = N^2 + 3N + 1
	// (B: N^2, A: N+1 staircase, C: 2N).
	selfB := findComp(t, a, "S1#1", SelfCarried, "i")
	wantB := expr.Add(n2, expr.Mul(expr.Const(3), n), expr.One())
	if !selfB.SD.Base.Equal(wantB) || !selfB.SD.IsConst() {
		t.Errorf("B self SD = %s, want %s", selfB.SD, wantB)
	}

	// C[i,k]: carried by middle j: SD = 2N + 3 (A: 2, B: N+1, C: N).
	selfC := findComp(t, a, "S1#2", SelfCarried, "j")
	wantC := expr.Add(expr.Mul(expr.Const(2), n), expr.Const(3))
	if !selfC.SD.Base.Equal(wantC) || !selfC.SD.IsConst() {
		t.Errorf("C self SD = %s, want %s", selfC.SD, wantC)
	}

	// Instance counts per site must sum to the iteration total N^3.
	for site, sum := range a.SummaryBySite() {
		if !sum.Equal(expr.Mul(n, n, n)) {
			t.Errorf("site %s count sum = %s, want N^3", site, sum)
		}
	}

	// Per-array breakdowns (the paper's Table 1 itemization): for the
	// innermost-carried A reuse each array contributes one element; for
	// C's j-carried reuse A contributes 2, B the staircase N+1, C itself N.
	wantABrk := map[string]string{"A": "1", "B": "1", "C": "1"}
	for _, bc := range selfA.Breakdown {
		if got := bc.Size.String(); got != wantABrk[bc.Array] {
			t.Errorf("A self breakdown %s = %s, want %s", bc.Array, got, wantABrk[bc.Array])
		}
	}
	wantCBrk := map[string]string{"A": "2", "B": "N + 1", "C": "N"}
	for _, bc := range selfC.Breakdown {
		if got := bc.Size.String(); got != wantCBrk[bc.Array] {
			t.Errorf("C self breakdown %s = %s, want %s", bc.Array, got, wantCBrk[bc.Array])
		}
	}
	if len(selfC.Breakdown) != 3 {
		t.Errorf("C self breakdown has %d arrays", len(selfC.Breakdown))
	}
}

// TestMatmulPredictionVsSimulation is the heart of the reproduction: the
// analytical model's miss counts must track the exact simulator across cache
// capacities spanning all the stack-distance regimes.
func TestMatmulPredictionVsSimulation(t *testing.T) {
	nest := matmulNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	const N = 20
	env := expr.Env{"N": N}
	// SD values: 3, 2N+3=43, N^2+3N+1=461. Capacities probe each regime.
	watches := []int64{2, 3, 10, 43, 100, 461, 2000}
	res := simulateMisses(t, nest, env, watches)
	for i, c := range watches {
		pred := predictTotal(t, a, env, c)
		sim := res.Misses[i]
		diff := pred - sim
		if diff < 0 {
			diff = -diff
		}
		// Boundary instances deviate by O(N^2) out of O(N^3) accesses.
		tol := int64(3*N*N) + sim/20
		if diff > tol {
			t.Errorf("cache %d: predicted %d vs simulated %d (diff %d > tol %d)",
				c, pred, sim, diff, tol)
		}
	}
	// Compulsory misses must be exact: 3 arrays of N^2 elements.
	predInf := predictTotal(t, a, env, 1<<40)
	if predInf != 3*N*N {
		t.Errorf("compulsory misses %d want %d", predInf, 3*N*N)
	}
	if res.Distinct != 3*N*N {
		t.Errorf("simulator distinct %d want %d", res.Distinct, 3*N*N)
	}
}

// imperfectNest mirrors the fused two-index structure in miniature:
// for i { S1: T[i]=0; for j { S2: T[i]+=A[i,j] }; for m { S3: B[m]+=T[i] } }
func imperfectNest(t *testing.T) *loopir.Nest {
	t.Helper()
	n := expr.Var("N")
	arrays := []*loopir.Array{
		{Name: "T", Dims: []*expr.Expr{n}},
		{Name: "A", Dims: []*expr.Expr{n, n}},
		{Name: "B", Dims: []*expr.Expr{n}},
	}
	s1 := &loopir.Stmt{Label: "S1", Refs: []loopir.Ref{
		{Array: "T", Mode: loopir.Write, Subs: []loopir.Subscript{loopir.Idx("i")}},
	}}
	s2 := &loopir.Stmt{Label: "S2", Refs: []loopir.Ref{
		{Array: "T", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("i")}},
		{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("j")}},
	}}
	s3 := &loopir.Stmt{Label: "S3", Refs: []loopir.Ref{
		{Array: "B", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("m")}},
		{Array: "T", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i")}},
	}}
	nest, err := loopir.NewNest("twoidx-mini", arrays, []loopir.Node{
		&loopir.Loop{Index: "i", Trip: n, Body: []loopir.Node{
			s1,
			&loopir.Loop{Index: "j", Trip: n, Body: []loopir.Node{s2}},
			&loopir.Loop{Index: "m", Trip: n, Body: []loopir.Node{s3}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nest
}

func TestImperfectComponentInventory(t *testing.T) {
	nest := imperfectNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	n := expr.Var("N")

	// T@S2 (site S2#0): self carried by j with SD 2 (T and A), plus a
	// cross-statement component from S1 with SD 2 (T itself + A prefix is
	// empty at j=0; span covers T[i] and A[i,0]).
	selfT2 := findComp(t, a, "S2#0", SelfCarried, "j")
	if !selfT2.SD.Base.Equal(expr.Const(2)) {
		t.Errorf("T@S2 self SD = %s, want 2", selfT2.SD)
	}
	crossT2 := findComp(t, a, "S2#0", CrossStmt, "")
	if !crossT2.Count.Equal(n) {
		t.Errorf("T@S2 cross count = %s, want N", crossT2.Count)
	}
	if crossT2.Source.Stmt.Label != "S1" {
		t.Errorf("T@S2 cross source = %s, want S1", crossT2.Source.Key())
	}
	if !crossT2.SD.IsConst() || !crossT2.SD.Base.Equal(expr.Const(2)) {
		t.Errorf("T@S2 cross SD = %s, want 2", crossT2.SD)
	}

	// T@S3 (site S3#1): self carried by m (SD 2: B element + T), cross from
	// S2 with SD 3 (T, A[i,N-1], B[0]).
	crossT3 := findComp(t, a, "S3#1", CrossStmt, "")
	if crossT3.Source.Stmt.Label != "S2" {
		t.Errorf("T@S3 cross source = %s, want S2", crossT3.Source.Key())
	}
	if !crossT3.SD.IsConst() || !crossT3.SD.Base.Equal(expr.Const(3)) {
		t.Errorf("T@S3 cross SD = %s, want 3", crossT3.SD)
	}

	// B@S3 (site S3#0): self carried by i with SD 2N+3 (T: 2, A: N+1
	// staircase approx of N, B: N).
	selfB := findComp(t, a, "S3#0", SelfCarried, "i")
	wantB := expr.Add(expr.Mul(expr.Const(2), n), expr.Const(3))
	if !selfB.SD.Base.Equal(wantB) {
		t.Errorf("B@S3 self SD = %s, want %s", selfB.SD, wantB)
	}

	// A@S2: all instances compulsory.
	ftA := findComp(t, a, "S2#1", FirstTouch, "")
	if !ftA.Count.Equal(expr.Mul(n, n)) {
		t.Errorf("A first-touch count = %s, want N^2", ftA.Count)
	}
}

func TestImperfectPredictionVsSimulation(t *testing.T) {
	nest := imperfectNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	const N = 30
	env := expr.Env{"N": N}
	watches := []int64{1, 2, 3, 5, 2*N + 3, 100, 10000}
	res := simulateMisses(t, nest, env, watches)
	for i, c := range watches {
		pred := predictTotal(t, a, env, c)
		sim := res.Misses[i]
		diff := pred - sim
		if diff < 0 {
			diff = -diff
		}
		tol := int64(4*N) + sim/20
		if diff > tol {
			t.Errorf("cache %d: predicted %d vs simulated %d (diff %d > tol %d)",
				c, pred, sim, diff, tol)
		}
	}
}

func TestTiledMatmulPredictionVsSimulation(t *testing.T) {
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
		Stmt: &loopir.Stmt{
			Label: "S1",
			Refs: []loopir.Ref{
				{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("j")}},
				{Array: "B", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("j"), loopir.Idx("k")}},
				{Array: "C", Mode: loopir.Update, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("k")}},
			},
		},
	}
	tiles := []loopir.TileSpec{
		loopir.DefaultTileSpec("i", n),
		loopir.DefaultTileSpec("j", n),
		loopir.DefaultTileSpec("k", n),
	}
	nest, err := loopir.TilePerfect(spec, tiles)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	const N = 24
	env := expr.Env{"N": N, "TI": 4, "TJ": 6, "TK": 8}
	watches := []int64{3, 24, 60, 150, 400, 1200, 5000}
	res := simulateMisses(t, nest, env, watches)
	for i, c := range watches {
		pred := predictTotal(t, a, env, c)
		sim := res.Misses[i]
		diff := pred - sim
		if diff < 0 {
			diff = -diff
		}
		tol := int64(4*N*N) + sim/10
		if diff > tol {
			t.Errorf("cache %d: predicted %d vs simulated %d (diff %d > tol %d)\n%s",
				c, pred, sim, diff, tol, a.Table())
		}
	}
}

func TestAnalyzeRejectsDuplicateArrayRefs(t *testing.T) {
	n := expr.Var("N")
	nest, err := loopir.NewNest("dup",
		[]*loopir.Array{{Name: "A", Dims: []*expr.Expr{n, n}}},
		[]loopir.Node{
			&loopir.Loop{Index: "i", Trip: n, Body: []loopir.Node{
				&loopir.Loop{Index: "j", Trip: n, Body: []loopir.Node{
					&loopir.Stmt{Refs: []loopir.Ref{
						{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("i"), loopir.Idx("j")}},
						{Array: "A", Mode: loopir.Read, Subs: []loopir.Subscript{loopir.Idx("j"), loopir.Idx("i")}},
					}},
				}},
			}},
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Analyze(nest); err == nil {
		t.Fatal("expected class violation error")
	}
}

func TestStackDistancesFilter(t *testing.T) {
	nest := matmulNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	all := a.StackDistances(nil)
	if len(all) == 0 {
		t.Fatal("no stack distances")
	}
	// Excluding N must drop the SDs that mention it (all but the constant 3).
	filtered := a.StackDistances(map[string]bool{"N": true})
	if len(filtered) >= len(all) {
		t.Fatalf("filter did not drop anything: %d vs %d", len(filtered), len(all))
	}
	for _, f := range filtered {
		if f.Base.HasAnyVar(map[string]bool{"N": true}) {
			t.Errorf("filtered SD %s still mentions N", f)
		}
	}
}

func TestTableRendering(t *testing.T) {
	nest := matmulNest(t)
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	out := a.Table()
	for _, want := range []string{"S1#0", "first-touch", "self", "SD ="} {
		if !containsStr(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && indexStr(s, sub) >= 0
}

func indexStr(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// ComponentsFor returns the components of one reference site.
func (a *Analysis) ComponentsFor(siteKey string) []*Component {
	var out []*Component
	for _, c := range a.Components {
		if c.Site.Key() == siteKey {
			out = append(out, c)
		}
	}
	return out
}

// SummaryBySite returns, for each site, the total symbolic instance count —
// a consistency check against the trip-count product.
func (a *Analysis) SummaryBySite() map[string]*expr.Expr {
	out := map[string]*expr.Expr{}
	for _, c := range a.Components {
		k := c.Site.Key()
		if out[k] == nil {
			out[k] = expr.Zero()
		}
		out[k] = expr.Add(out[k], c.Count)
	}
	return out
}
