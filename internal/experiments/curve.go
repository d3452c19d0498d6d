package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/trace"
)

// CurvePoint compares the model's predicted misses against the exact
// success function at one capacity.
type CurvePoint struct {
	CacheElems int64
	Predicted  int64
	Simulated  int64
}

// RunMissCurve evaluates the model and the exact success function at a
// geometric ladder of capacities from 1 to the full footprint — the
// whole-curve agreement check (Tables 2/3 probe single capacities; this
// probes them all).
func RunMissCurve(a *core.Analysis, env expr.Env, points int) ([]CurvePoint, error) {
	p, err := trace.Compile(a.Nest, env)
	if err != nil {
		return nil, err
	}
	sim := cachesim.NewStackSim(p.Size, len(p.Sites), nil)
	sf := sim.CollectExact()
	p.RunBlocks(trace.DefaultBlockSize, sim.AccessBlock)

	footprint, err := a.Nest.Footprint().Eval(env)
	if err != nil {
		return nil, err
	}
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
	f := a.SymTab().FrameOf(env)
	simCurve := sf.MissCurve(caps)
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
