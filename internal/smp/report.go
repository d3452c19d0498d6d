package smp

import (
	"fmt"
	"strings"
)

// Speedup returns the parallel speedup of p relative to a baseline
// single-processor prediction under the infinite-bandwidth model.
func Speedup(base, p *Prediction) float64 {
	if p.TimeInfiniteBW == 0 {
		return 0
	}
	return base.TimeInfiniteBW / p.TimeInfiniteBW
}

// Efficiency returns Speedup / P.
func Efficiency(base, p *Prediction) float64 {
	return Speedup(base, p) / float64(p.Procs)
}

// FormatPredictions renders a speedup table for a series of predictions
// sharing a baseline (the first entry).
func FormatPredictions(title string, preds []*Prediction, m CostModel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%5s %14s %14s %10s %10s\n", "P", "time-inf(s)", "time-bus(s)", "speedup", "efficiency")
	if len(preds) == 0 {
		return b.String()
	}
	base := preds[0]
	for _, p := range preds {
		fmt.Fprintf(&b, "%5d %14.3f %14.3f %10.2f %10.2f\n",
			p.Procs, p.SecondsInfinite(m), p.SecondsBus(m), Speedup(base, p), Efficiency(base, p))
	}
	return b.String()
}
