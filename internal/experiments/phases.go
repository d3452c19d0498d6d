package experiments

import (
	"fmt"
	"strings"

	"repro/internal/expr"
)

// PhasePoint is one point of the §6 phase curve: predicted misses of the
// tiled matmul as a uniform tile size grows at a fixed cache capacity. The
// curve exhibits the paper's four-phase structure — misses decrease
// monotonically within a phase and jump when a stack distance crosses the
// cache capacity.
type PhasePoint struct {
	Tile   int64
	Misses int64
}

// RunPhaseCurve sweeps uniform tile sizes (divisors of n) for the tiled
// matmul at the given cache capacity.
func RunPhaseCurve(n int64, cacheElems int64) ([]PhasePoint, error) {
	a, err := MatmulAnalysis()
	if err != nil {
		return nil, err
	}
	// One reused frame across the sweep: each tile size is three slot stores.
	tab := a.SymTab()
	f := tab.FrameOf(expr.Env{"N": n})
	slots := []int{tab.Slot("TI"), tab.Slot("TJ"), tab.Slot("TK")}
	var out []PhasePoint
	for t := int64(2); t <= n; t++ {
		if n%t != 0 {
			continue
		}
		for _, s := range slots {
			f.Set(s, t)
		}
		rep, err := a.PredictMissesFrame(f, cacheElems)
		if err != nil {
			return nil, err
		}
		out = append(out, PhasePoint{Tile: t, Misses: rep.Total})
	}
	return out, nil
}

// PhaseJumps returns the indices where the miss count increases from one
// tile size to the next — the phase transitions.
func PhaseJumps(pts []PhasePoint) []int {
	var jumps []int
	for i := 1; i < len(pts); i++ {
		if pts[i].Misses > pts[i-1].Misses {
			jumps = append(jumps, i)
		}
	}
	return jumps
}

// FormatPhaseCurve renders the curve with transition markers.
func FormatPhaseCurve(pts []PhasePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-14s\n", "tile", "misses")
	prev := int64(-1)
	for _, p := range pts {
		marker := ""
		if prev >= 0 && p.Misses > prev {
			marker = "  <- phase transition (a stack distance crossed the cache)"
		}
		fmt.Fprintf(&b, "%-8d %-14d%s\n", p.Tile, p.Misses, marker)
		prev = p.Misses
	}
	return b.String()
}
