package experiments

import (
	"fmt"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/trace"
)

// AssocPoint records miss counts for one cache organization on the same
// trace — the sensitivity study that bounds how far real set-associative
// caches deviate from the paper's fully-associative model. The paper's
// experiments side-step conflict misses by copying tiles ("which will also
// be the case in fully-associative caches", §7.1); this experiment
// quantifies what that copying buys.
type AssocPoint struct {
	Ways      int // 0 = fully associative
	LineElems int64
	Misses    int64
	Accesses  int64
	// Predicted is the analytic model's miss count for this organization:
	// the paper's fully-associative model on the ways-0 row, the
	// conflict-aware model (PredictMissesFrameConfig) on every other.
	Predicted int64
}

// RunAssocSensitivity simulates the kernel's trace against a fully
// associative cache and against each of the given associativities, at the
// same capacity and line size, with the matching analytic prediction next
// to each simulated count.
func RunAssocSensitivity(kind string, n int64, tiles []int64, cacheKB int64, ways []int, lineElems int64) ([]AssocPoint, error) {
	nest, env, err := BuildKernel(kind, n, tiles)
	if err != nil {
		return nil, err
	}
	p, err := trace.Compile(nest, env)
	if err != nil {
		return nil, err
	}
	capacity := KB(cacheKB)

	full := cachesim.NewStackSim(p.Size, len(p.Sites), []int64{capacity})
	var assoc []*cachesim.AssocCache
	for _, w := range ways {
		c, err := cachesim.NewAssocCache(capacity, w, lineElems)
		if err != nil {
			return nil, fmt.Errorf("ways %d: %w", w, err)
		}
		assoc = append(assoc, c)
	}
	p.RunBlocks(trace.DefaultBlockSize, func(sites []int32, addrs []int64) {
		full.AccessBlock(sites, addrs)
		for _, c := range assoc {
			c.AccessBlock(addrs)
		}
	})
	res := full.Results()
	m, err := res.MissesFor(capacity)
	if err != nil {
		return nil, err
	}
	a, err := core.Analyze(nest)
	if err != nil {
		return nil, err
	}
	f := a.SymTab().FrameOf(env)
	faRep, err := a.PredictMissesFrame(f, capacity)
	if err != nil {
		return nil, err
	}
	out := []AssocPoint{{Ways: 0, LineElems: 1, Misses: m, Accesses: res.Accesses, Predicted: faRep.Total}}
	for i, w := range ways {
		cfg := core.CacheConfig{CapacityElems: capacity, Ways: int64(w), LineElems: lineElems}
		crep, err := a.PredictMissesFrameConfig(f, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AssocPoint{
			Ways:      w,
			LineElems: lineElems,
			Misses:    assoc[i].Misses(),
			Accesses:  res.Accesses,
			Predicted: crep.Total,
		})
	}
	return out, nil
}

func TestAssocSensitivityMatmul(t *testing.T) {
	pts, err := RunAssocSensitivity("matmul", 32, []int64{8, 8, 8}, 1, []int{1, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("%d points", len(pts))
	}
	full := pts[0]
	if full.Ways != 0 || full.Misses <= 0 {
		t.Fatalf("full-assoc point %+v", full)
	}
	// All organizations see the same trace, and each row carries a
	// prediction from the matching model.
	for _, p := range pts {
		if p.Accesses != full.Accesses {
			t.Errorf("ways %d saw %d accesses, full saw %d", p.Ways, p.Accesses, full.Accesses)
		}
		if p.Predicted <= 0 {
			t.Errorf("ways %d: no prediction attached (%d)", p.Ways, p.Predicted)
		}
	}
	// Direct-mapped must miss at least as much as fully-associative LRU on
	// this unit-line configuration (LRU inclusion holds per capacity; with
	// identical capacity and line size, conflicts only add misses for these
	// regular traces).
	direct := pts[1]
	if direct.Misses < full.Misses {
		t.Errorf("direct-mapped misses %d < fully-associative %d", direct.Misses, full.Misses)
	}
}

func TestAssocSensitivityBadConfig(t *testing.T) {
	if _, err := RunAssocSensitivity("matmul", 32, []int64{8, 8, 8}, 1, []int{7}, 1); err == nil {
		t.Fatal("non-dividing ways accepted")
	}
	if _, err := RunAssocSensitivity("nope", 32, nil, 1, nil, 1); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}
