package core

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/kernels"
)

func matmulAnalysis(t *testing.T) *Analysis {
	t.Helper()
	nest, err := kernels.TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func diffReports(t *testing.T, got, want *MissReport) {
	t.Helper()
	if got.Total != want.Total || got.Accesses != want.Accesses || got.CacheElems != want.CacheElems {
		t.Fatalf("report header diverges: got %d/%d/%d want %d/%d/%d",
			got.Total, got.Accesses, got.CacheElems, want.Total, want.Accesses, want.CacheElems)
	}
	if len(got.Detail) != len(want.Detail) {
		t.Fatalf("detail length %d vs %d", len(got.Detail), len(want.Detail))
	}
	for i := range want.Detail {
		g, w := got.Detail[i], want.Detail[i]
		if g.Misses != w.Misses || g.Count != w.Count || g.SDMin != w.SDMin || g.SDMax != w.SDMax {
			t.Fatalf("component %d diverges: %+v vs %+v", i, g, w)
		}
	}
	for k, v := range want.BySite {
		if got.BySite[k] != v {
			t.Fatalf("site %s: %d vs %d", k, got.BySite[k], v)
		}
	}
}

// Frame validation must reproduce loopir.ValidateEnv's errors verbatim.
func TestValidateFrameErrorsMatchEnv(t *testing.T) {
	a := matmulAnalysis(t)
	cases := []expr.Env{
		{},                                   // everything missing
		{"N": 64},                            // tiles missing
		{"N": 64, "TI": 0, "TJ": 4, "TK": 4}, // non-positive symbol
		{"N": -3, "TI": 4, "TJ": 4, "TK": 4},
		{"N": 64, "TI": 4, "TJ": 4, "TK": 4}, // valid
	}
	for _, env := range cases {
		wantErr := a.Nest.ValidateEnv(env)
		f := a.SymTab().FrameOf(env)
		_, gotErr := a.PredictMissesFrame(f, 1024)
		switch {
		case wantErr == nil && gotErr == nil:
		case wantErr == nil || gotErr == nil:
			t.Fatalf("env %v: error occurrence mismatch: env=%v frame=%v", env, wantErr, gotErr)
		case wantErr.Error() != gotErr.Error():
			t.Fatalf("env %v: error text mismatch:\nenv:   %v\nframe: %v", env, wantErr, gotErr)
		}
	}
}

// Re-analyzing the same nest must reproduce the same name→slot mapping:
// the property that keeps component slot lists and any serialized slot data
// stable across runs.
func TestAnalysisSymTabStableUnderReanalysis(t *testing.T) {
	build := func() []string {
		nest, err := kernels.TiledMatmul()
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(nest)
		if err != nil {
			t.Fatal(err)
		}
		tab := a.SymTab()
		names := make([]string, tab.Len())
		for i := range names {
			names[i] = tab.Name(i)
		}
		return names
	}
	first := build()
	if len(first) == 0 {
		t.Fatalf("empty symbol table after analysis")
	}
	for trial := 0; trial < 3; trial++ {
		again := build()
		if len(again) != len(first) {
			t.Fatalf("slot count changed across re-analysis: %v vs %v", again, first)
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("slot %d changed across re-analysis: %q vs %q", i, again[i], first[i])
			}
		}
	}
}

// TestComponentSlotsCoverBindings: a component's values are a function of
// the bindings of its own slots. Changing any other symbol leaves them
// unchanged, and changing a tile symbol changes some component that lists
// it, so the lists are neither too short nor vacuous. The tile search
// counts distinct evaluations by these lists.
func TestComponentSlotsCoverBindings(t *testing.T) {
	twoIndex, err := kernels.TiledTwoIndex(kernels.SymbolicTwoIndexBounds())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(twoIndex)
	if err != nil {
		t.Fatal(err)
	}
	for _, fx := range []struct {
		a   *Analysis
		env expr.Env
	}{
		{matmulAnalysis(t), expr.Env{"N": 64, "TI": 8, "TJ": 4, "TK": 16}},
		{b, expr.Env{"NI": 64, "NJ": 32, "NM": 64, "NN": 32, "TI": 8, "TJ": 4, "TM": 16, "TN": 8}},
	} {
		values := func(env expr.Env) []componentValues {
			f := fx.a.SymTab().FrameOf(env)
			out := make([]componentValues, len(fx.a.Components))
			for i := range fx.a.Components {
				v, err := fx.a.ca.comps[i].evalComponentValuesFrame(f)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = v
			}
			return out
		}
		base := values(fx.env)
		for sym := range fx.env {
			slot, _ := fx.a.SymTab().Lookup(sym)
			env := maps.Clone(fx.env)
			env[sym] *= 2
			changed := 0
			for i, v := range values(env) {
				_, listed := slices.BinarySearch(fx.a.ComponentSlots(i), slot)
				switch {
				case v != base[i] && !listed:
					t.Errorf("%s: doubling %s changes component %d, whose slots %v omit slot %d",
						fx.a.Nest.Name, sym, i, fx.a.ComponentSlots(i), slot)
				case v != base[i]:
					changed++
				}
			}
			if changed == 0 && sym[0] == 'T' {
				t.Errorf("%s: doubling tile %s changes no component", fx.a.Nest.Name, sym)
			}
		}
	}
}
