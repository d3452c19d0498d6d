package smp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/expr"
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

// PredictUneven handles processor counts that do not divide the partitioned
// bound: the bound splits into ⌈n/P⌉ for the first n mod P processors and
// ⌊n/P⌋ for the rest (in tile units when the bound is tiled, which is the
// caller's responsibility to respect via divisibility of the chunk by the
// tile size — an error is returned otherwise). The slowest processor
// defines the infinite-bandwidth time; the sum of all processors' misses
// defines the bus-limited time.
func PredictUneven(a *core.Analysis, env expr.Env, cfg Config, tile int64) (*Prediction, error) {
	n, ok := env[cfg.SplitSymbol]
	if !ok {
		return nil, fmt.Errorf("smp: env missing split symbol %s", cfg.SplitSymbol)
	}
	if cfg.Procs <= 0 {
		return nil, fmt.Errorf("smp: non-positive processor count")
	}
	if tile <= 0 || n%tile != 0 {
		return nil, fmt.Errorf("smp: tile %d does not divide bound %d", tile, n)
	}
	tiles := n / tile
	if tiles < cfg.Procs {
		return nil, fmt.Errorf("smp: %d processors exceed %d tiles", cfg.Procs, tiles)
	}
	big := tiles % cfg.Procs
	small := tiles / cfg.Procs

	f := a.SymTab().FrameOf(env)
	flopsProg := expr.Compile(Flops(a.Nest), a.SymTab())
	eval := func(chunkTiles int64) (misses, flops int64, err error) {
		f.SetName(cfg.SplitSymbol, chunkTiles*tile)
		rep, err := a.PredictMissesFrame(f, cfg.CacheElems)
		if err != nil {
			return 0, 0, err
		}
		flops, err = flopsProg.Eval(f)
		return rep.Total, flops, err
	}

	mSmall, fSmall, err := eval(small)
	if err != nil {
		return nil, err
	}
	mBig, fBig := mSmall, fSmall
	if big > 0 {
		mBig, fBig, err = eval(small + 1)
		if err != nil {
			return nil, err
		}
	}
	m := cfg.Model
	total := mBig*big + mSmall*(cfg.Procs-big)
	worstCompute := float64(fBig) * m.FlopCost
	return &Prediction{
		Procs:          cfg.Procs,
		PerProcMisses:  mBig, // the critical-path processor
		TotalMisses:    total,
		PerProcFlops:   fBig,
		TimeInfiniteBW: worstCompute + float64(mBig)*m.MissPenalty,
		TimeBusBound:   worstCompute + float64(total)*m.MissPenalty,
	}, nil
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
