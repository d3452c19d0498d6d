package smp

import (
	"strings"
	"testing"
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
