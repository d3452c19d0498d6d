package kernels

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/loopir"
	"repro/internal/trace"
)

func TestTiledMatmulCopiedBuildsAndComputes(t *testing.T) {
	nest, err := TiledMatmulCopied()
	if err != nil {
		t.Fatal(err)
	}
	const N = 16
	env := expr.Env{"N": N, "TI": 4, "TJ": 4, "TK": 4}
	ex, err := trace.NewExecutor(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	a := NewMatrix(N, N)
	b := NewMatrix(N, N)
	a.FillSequential(0.25)
	b.FillSequential(0.5)
	if err := ex.SetArray("A", a.Data); err != nil {
		t.Fatal(err)
	}
	if err := ex.SetArray("B", b.Data); err != nil {
		t.Fatal(err)
	}
	ex.Run()
	got, err := ex.Array("C")
	if err != nil {
		t.Fatal(err)
	}
	want := NewMatrix(N, N)
	if err := MatmulNaive(a, b, want); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		d := got[i] - want.Data[i]
		if d < 0 {
			d = -d
		}
		if d > 1e-9 {
			t.Fatalf("C[%d] = %g want %g", i, got[i], want.Data[i])
		}
	}
}

func TestCopiedModelVsSimulation(t *testing.T) {
	nest, err := TiledMatmulCopied()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	const N = 32
	env := expr.Env{"N": N, "TI": 8, "TJ": 8, "TK": 8}
	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	watches := []int64{16, 128, 1024, 1 << 30}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
	p.Run(sim.Access)
	res := sim.Results()
	predInfRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	predInf := predInfRep.Total
	if predInf != res.Distinct {
		t.Errorf("compulsory %d vs distinct %d", predInf, res.Distinct)
	}
	for i, c := range watches {
		predRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), c)
		if err != nil {
			t.Fatal(err)
		}
		pred := predRep.Total
		d := pred - res.Misses[i]
		if d < 0 {
			d = -d
		}
		tol := res.Misses[i]/5 + res.Accesses/30 + 100
		if d > tol {
			t.Errorf("cache %d: predicted %d vs simulated %d", c, pred, res.Misses[i])
		}
	}
}

// TestCopyingRemovesConflictMisses is the §7.1 rationale: in a direct-mapped
// cache the uncopied tiled matmul thrashes on tile rows spaced N apart,
// while the copied version's contiguous buffers conflict far less. In a
// fully-associative cache the copies only add their own (small) traffic.
func TestCopyingRemovesConflictMisses(t *testing.T) {
	plain, err := TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	copied, err := TiledMatmulCopied()
	if err != nil {
		t.Fatal(err)
	}
	// N a multiple of the cache size makes rows conflict maximally.
	const N, tile = 64, 8
	const capacity = 256 // elements; N*4 rows alias heavily
	env := expr.Env{"N": N, "TI": tile, "TJ": tile, "TK": tile}

	run := func(nest *loopir.Nest) (direct float64, full float64, accesses int64) {
		t.Helper()
		p, err := trace.Compile(nest, env)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := cachesim.NewDirectMapped(capacity, 1)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := cachesim.NewFullyAssoc(capacity)
		if err != nil {
			t.Fatal(err)
		}
		p.Run(func(_ int, addr int64) {
			dm.Access(addr)
			fa.Access(addr)
		})
		return dm.MissRatio(), fa.MissRatio(), dm.Accesses()
	}
	dPlain, fPlain, _ := run(plain)
	dCopied, fCopied, _ := run(copied)

	// Direct-mapped: copying must cut the miss ratio substantially.
	if dCopied >= dPlain*0.7 {
		t.Errorf("copying did not reduce direct-mapped conflicts: %.4f -> %.4f", dPlain, dCopied)
	}
	// Fully associative: both small; copying costs a little extra traffic
	// but must stay in the same regime.
	if fCopied > 5*fPlain+0.05 {
		t.Errorf("copied fully-assoc ratio %.4f unreasonable vs %.4f", fCopied, fPlain)
	}
}
