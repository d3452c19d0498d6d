package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// CurvePoint compares the model's predicted misses against the exact
// simulated misses at one capacity.
type CurvePoint struct {
	CacheElems int64
	Predicted  int64
	Simulated  int64
}

// RunMissCurve evaluates the model and the exact stack simulator at a
// geometric ladder of capacities from 1 to the full footprint — the
// whole-curve agreement check (Tables 2/3 probe single capacities; this
// probes them all). One simulation pass watches every capacity.
func RunMissCurve(a *core.Analysis, env expr.Env, points int) ([]CurvePoint, error) {
	p, err := trace.Compile(a.Nest, env)
	if err != nil {
		return nil, err
	}
	footprint := p.Size // the arrays are laid out back to back
	if points < 2 {
		points = 2
	}
	var caps []int64
	c := int64(1)
	for len(caps) < points && c < 2*footprint {
		caps = append(caps, c)
		next := c * 2
		if next == c {
			break
		}
		c = next
	}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), caps)
	p.RunBlocks(trace.DefaultBlockSize, sim.AccessBlock)
	simCurve := sim.Results().Misses
	f := a.SymTab().FrameOf(env)
	out := make([]CurvePoint, len(caps))
	for i := range caps {
		rep, err := a.PredictMissesFrame(f, caps[i])
		if err != nil {
			return nil, err
		}
		out[i] = CurvePoint{CacheElems: caps[i], Predicted: rep.Total, Simulated: simCurve[i]}
	}
	return out, nil
}

// CurveMaxRelErr returns the worst relative error across the curve,
// ignoring capacities where both counts are tiny.
func CurveMaxRelErr(pts []CurvePoint, floor int64) float64 {
	var worst float64
	for _, p := range pts {
		if p.Simulated < floor {
			continue
		}
		d := float64(p.Predicted - p.Simulated)
		if d < 0 {
			d = -d
		}
		if r := d / float64(p.Simulated); r > worst {
			worst = r
		}
	}
	return worst
}

// FormatCurve renders the comparison with a crude log-scale bar per point.
func FormatCurve(pts []CurvePoint, accesses int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-14s %-14s %-8s %s\n", "capacity", "predicted", "simulated", "rel-err", "miss ratio")
	for _, p := range pts {
		rel := "-"
		if p.Simulated > 0 {
			d := float64(p.Predicted-p.Simulated) / float64(p.Simulated)
			rel = fmt.Sprintf("%+.2f%%", 100*d)
		}
		bar := ""
		if accesses > 0 {
			width := int(40 * float64(p.Simulated) / float64(accesses))
			bar = strings.Repeat("#", width)
		}
		fmt.Fprintf(&b, "%-12d %-14d %-14d %-8s %s\n", p.CacheElems, p.Predicted, p.Simulated, rel, bar)
	}
	return b.String()
}

// TestMissCurveAgreementMatmul: the model's whole miss curve tracks the
// exact success function on the tiled matmul — not just at the paper's
// probed capacities.
func TestMissCurveAgreementMatmul(t *testing.T) {
	a, err := AnalyzedKernel("matmul", nil)
	if err != nil {
		t.Fatal(err)
	}
	env, err := kernels.MatmulEnv(32, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := RunMissCurve(a, env, 14)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 10 {
		t.Fatalf("only %d curve points", len(pts))
	}
	// Monotone non-increasing in capacity (both series).
	for i := 1; i < len(pts); i++ {
		if pts[i].Simulated > pts[i-1].Simulated {
			t.Errorf("simulated curve not monotone at %d", pts[i].CacheElems)
		}
		if pts[i].Predicted > pts[i-1].Predicted {
			t.Errorf("predicted curve not monotone at %d", pts[i].CacheElems)
		}
	}
	// Largest capacity: compulsory only, both sides.
	last := pts[len(pts)-1]
	if last.Predicted != last.Simulated {
		t.Errorf("compulsory tail: predicted %d vs %d", last.Predicted, last.Simulated)
	}
	// Worst relative error across the curve stays modest (the power-of-two
	// ladder lands near SD boundaries at a few points).
	if worst := CurveMaxRelErr(pts, 1000); worst > 0.25 {
		t.Errorf("worst curve error %.3f:\n%s", worst, FormatCurve(pts, 0))
	}
}

func TestMissCurveAgreementTwoIndex(t *testing.T) {
	a, err := AnalyzedKernel("twoindex", nil)
	if err != nil {
		t.Fatal(err)
	}
	env, err := kernels.TwoIndexEnv(32, 8, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := RunMissCurve(a, env, 14)
	if err != nil {
		t.Fatal(err)
	}
	if worst := CurveMaxRelErr(pts, 2000); worst > 0.35 {
		t.Errorf("worst curve error %.3f:\n%s", worst, FormatCurve(pts, 0))
	}
	out := FormatCurve(pts, pts[0].Simulated)
	if !strings.Contains(out, "rel-err") {
		t.Fatal("bad rendering")
	}
}
