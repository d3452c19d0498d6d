package smp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/kernels"
)

func TestSpeedupEfficiency(t *testing.T) {
	base := &Prediction{Procs: 1, TimeInfiniteBW: 100}
	p4 := &Prediction{Procs: 4, TimeInfiniteBW: 25}
	if s := Speedup(base, p4); s != 4 {
		t.Errorf("speedup %v", s)
	}
	if e := Efficiency(base, p4); e != 1 {
		t.Errorf("efficiency %v", e)
	}
	if Speedup(base, &Prediction{Procs: 2}) != 0 {
		t.Error("zero-time speedup should be 0")
	}
}

func TestPredictUnevenMatchesEvenWhenDivisible(t *testing.T) {
	a := analyzedTwoIndex(t)
	env, err := kernels.TwoIndexEnv(64, 16, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Procs: 2, SplitSymbol: "NN", CacheElems: 512, Model: DefaultCostModel()}
	even, err := Predict(a, env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uneven, err := PredictUneven(a, env, cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if even.PerProcMisses != uneven.PerProcMisses || even.TotalMisses != uneven.TotalMisses {
		t.Errorf("even %+v vs uneven %+v", even, uneven)
	}
}

func TestPredictUnevenThreeProcs(t *testing.T) {
	a := analyzedTwoIndex(t)
	env, err := kernels.TwoIndexEnv(64, 16, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Procs: 3, SplitSymbol: "NN", CacheElems: 512, Model: DefaultCostModel()}
	// 4 tiles of 16 across 3 processors: chunks 2, 1, 1.
	pred, err := PredictUneven(a, env, cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	// The critical path is the 2-tile processor: slower than a perfect
	// 3-way split but faster than the 1-processor run.
	one := Config{Procs: 1, SplitSymbol: "NN", CacheElems: 512, Model: DefaultCostModel()}
	p1, err := Predict(a, env, one)
	if err != nil {
		t.Fatal(err)
	}
	if !(pred.TimeInfiniteBW < p1.TimeInfiniteBW) {
		t.Errorf("3 procs (%f) not faster than 1 (%f)", pred.TimeInfiniteBW, p1.TimeInfiniteBW)
	}
	two := cfg
	two.Procs = 2
	p2, err := Predict(a, env, two)
	if err != nil {
		t.Fatal(err)
	}
	if pred.TimeInfiniteBW > p2.TimeInfiniteBW {
		t.Errorf("3 procs (%f) slower than 2 procs (%f)", pred.TimeInfiniteBW, p2.TimeInfiniteBW)
	}
	// Errors.
	if _, err := PredictUneven(a, env, cfg, 7); err == nil {
		t.Error("non-dividing tile accepted")
	}
	bad := cfg
	bad.Procs = 99
	if _, err := PredictUneven(a, env, bad, 16); err == nil {
		t.Error("more processors than tiles accepted")
	}
}

func TestTimeInterpolated(t *testing.T) {
	p := Prediction{TimeInfiniteBW: 100, TimeBusBound: 300}
	if got := p.TimeInterpolated(0); got != 100 {
		t.Errorf("alpha 0: %v", got)
	}
	if got := p.TimeInterpolated(1); got != 300 {
		t.Errorf("alpha 1: %v", got)
	}
	if got := p.TimeInterpolated(0.5); got != 200 {
		t.Errorf("alpha 0.5: %v", got)
	}
	// Clamping.
	if got := p.TimeInterpolated(-3); got != 100 {
		t.Errorf("alpha -3: %v", got)
	}
	if got := p.TimeInterpolated(7); got != 300 {
		t.Errorf("alpha 7: %v", got)
	}
}

func TestFormatPredictions(t *testing.T) {
	m := DefaultCostModel()
	preds := []*Prediction{
		{Procs: 1, TimeInfiniteBW: 2e9, TimeBusBound: 2e9},
		{Procs: 2, TimeInfiniteBW: 1e9, TimeBusBound: 1.5e9},
	}
	out := FormatPredictions("scaling", preds, m)
	if !strings.Contains(out, "speedup") || !strings.Contains(out, "2.00") {
		t.Fatalf("bad table:\n%s", out)
	}
	if FormatPredictions("empty", nil, m) == "" {
		t.Fatal("empty table should still have a header")
	}
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

// TimeInterpolated blends the two limit models: alpha = 0 is the
// infinite-bandwidth limit, alpha = 1 the bus-limited one. §7 observes the
// real machine lies between the limits; a calibrated alpha captures a
// specific machine's effective memory parallelism.
func (p Prediction) TimeInterpolated(alpha float64) float64 {
	if alpha < 0 {
		alpha = 0
	}
	if alpha > 1 {
		alpha = 1
	}
	return p.TimeInfiniteBW + alpha*(p.TimeBusBound-p.TimeInfiniteBW)
}
