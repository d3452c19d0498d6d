package nestgen

import (
	"math/rand"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/trace"
)

// TestGeneratedTiledNests fuzzes the tile-pair (composite subscript)
// machinery: random strip-mined perfect nests, model vs exact simulation.
func TestGeneratedTiledNests(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 80; i++ {
		nest, env, err := Generate(r, i, Config{Tiled: true})
		if err != nil {
			t.Fatalf("id=%d: %v", i, err)
		}
		a, err := core.Analyze(nest)
		if err != nil {
			t.Fatalf("id=%d: %v\n%s", i, err, nest)
		}
		p, err := trace.Compile(nest, env)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckBounds(); err != nil {
			t.Fatalf("id=%d: %v\n%s", i, err, nest)
		}
		watches := []int64{1, 2, 4, 8, 16, 64, 1 << 20}
		sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
		p.Run(sim.Access)
		res := sim.Results()

		predInfRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		predInf := predInfRep.Total
		if predInf != res.Distinct {
			t.Errorf("id=%d: compulsory %d vs distinct %d\nenv=%v\n%s\n%s",
				i, predInf, res.Distinct, env, nest, a.Table())
			continue
		}
		// Tiny trips make boundary effects relatively large, and a probe
		// capacity that lands exactly on a component's representative SD
		// flips that whole component — at micro scale one component can be
		// half the trace. The bound below still catches structural bugs
		// (wrong partitions, wrong counts, broken compulsory accounting)
		// while tolerating boundary flips.
		slack := res.Accesses/2 + 40
		for wi, c := range watches {
			predRep, err := a.PredictMissesFrame(a.SymTab().FrameOf(env), c)
			if err != nil {
				t.Fatal(err)
			}
			pred := predRep.Total
			d := pred - res.Misses[wi]
			if d < 0 {
				d = -d
			}
			if d > slack {
				t.Errorf("id=%d cap=%d: predicted %d vs simulated %d (slack %d)\nenv=%v\n%s",
					i, c, pred, res.Misses[wi], slack, env, nest)
			}
		}
	}
}
