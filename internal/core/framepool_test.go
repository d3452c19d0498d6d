package core

import (
	"testing"

	"repro/internal/kernels"
)

// TestFramePool: pooled frames come back reset, and a prediction through a
// pooled frame matches one through a fresh frame exactly.
func TestFramePool(t *testing.T) {
	nest, err := kernels.TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	env, err := kernels.MatmulEnv(64, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := predictTotal(t, a, env, 512)

	f := a.GetFrame()
	f.Bind(env)
	got, err := a.PredictMissesFrame(f, 512)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != want {
		t.Errorf("pooled-frame prediction %d, want %d", got.Total, want)
	}
	a.PutFrame(f)

	// The recycled frame must carry no stale bindings.
	f2 := a.GetFrame()
	defer a.PutFrame(f2)
	for _, name := range nest.SymbolNames() {
		if v, ok := f2.GetName(name); ok {
			t.Errorf("recycled frame still binds %s=%d", name, v)
		}
	}
	if _, err := a.PredictMissesFrame(f2, 512); err == nil {
		t.Error("empty pooled frame validated, want missing-symbol error")
	}

	// Nil put is a no-op.
	a.PutFrame(nil)
}

// TestFramePoolSharesSymTab: frames from the pool evaluate compiled
// programs of the same analysis (slot identity holds across recycling).
func TestFramePoolSharesSymTab(t *testing.T) {
	nest, err := kernels.TiledMatmul()
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(nest)
	if err != nil {
		t.Fatal(err)
	}
	f := a.GetFrame()
	if f.Tab() != a.SymTab() {
		t.Fatal("pooled frame is over a different symbol table")
	}
	f.SetName("N", 16)
	if v, _ := f.GetName("N"); v != 16 {
		t.Fatalf("SetName/GetName through pooled frame: got %d", v)
	}
	a.PutFrame(f)
}
