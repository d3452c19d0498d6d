package expr

import (
	"sync"
	"testing"
)

func TestSymTabSlotAssignment(t *testing.T) {
	tab := NewSymTab()
	if got := tab.Slot("N"); got != 0 {
		t.Fatalf("first slot = %d, want 0", got)
	}
	if got := tab.Slot("TI"); got != 1 {
		t.Fatalf("second slot = %d, want 1", got)
	}
	if got := tab.Slot("N"); got != 0 {
		t.Fatalf("repeat Slot(N) = %d, want 0", got)
	}
	if got := tab.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := tab.Name(1); got != "TI" {
		t.Fatalf("Name(1) = %q, want TI", got)
	}
	if _, ok := tab.Lookup("TJ"); ok {
		t.Fatalf("Lookup of unassigned symbol reported a slot")
	}
	if got := names(tab); len(got) != 2 || got[0] != "N" || got[1] != "TI" {
		t.Fatalf("Names = %v", got)
	}
}

// Slots must be stable under re-compilation: compiling the same expressions
// against the same table in the same order yields identical slot numbers, and
// compiling *more* expressions later never renumbers existing slots. This is
// the property the per-component binary cache keys rely on.
func TestSymTabSlotStabilityUnderRecompile(t *testing.T) {
	e1 := Add(Mul(Var("N"), Var("TI")), Var("TJ"))
	e2 := CeilDiv(Var("N"), Var("TK"))

	tab := NewSymTab()
	Compile(e1, tab)
	first := names(tab)

	Compile(e1, tab) // recompile: no new slots
	if got := tab.Len(); got != len(first) {
		t.Fatalf("recompile grew table from %d to %d slots", len(first), got)
	}

	Compile(e2, tab) // new symbols append, old slots unchanged
	for i, name := range first {
		if tab.Name(i) != name {
			t.Fatalf("slot %d changed from %q to %q after later compile", i, name, tab.Name(i))
		}
	}
	if _, ok := tab.Lookup("TK"); !ok {
		t.Fatalf("new symbol TK not assigned")
	}
}

func TestSymTabConcurrentSlot(t *testing.T) {
	tab := NewSymTab()
	names := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tab.Slot(names[i%len(names)])
			}
		}()
	}
	wg.Wait()
	if got := tab.Len(); got != len(names) {
		t.Fatalf("Len = %d, want %d", got, len(names))
	}
	seen := map[int]string{}
	for _, n := range names {
		s, ok := tab.Lookup(n)
		if !ok {
			t.Fatalf("missing slot for %s", n)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("slot %d assigned to both %s and %s", s, prev, n)
		}
		seen[s] = n
	}
}

func TestFrameBasics(t *testing.T) {
	tab := NewSymTab()
	n := tab.Slot("N")
	f := tab.NewFrame()
	if _, ok := f.Get(n); ok {
		t.Fatalf("fresh frame has a bound slot")
	}
	f.Set(n, 42)
	if v, ok := f.Get(n); !ok || v != 42 {
		t.Fatalf("Get = %d,%v want 42,true", v, ok)
	}
	if v, ok := getName(f, "N"); !ok || v != 42 {
		t.Fatalf("GetName = %d,%v want 42,true", v, ok)
	}
	if _, ok := getName(f, "nope"); ok {
		t.Fatalf("GetName of unknown symbol reported a value")
	}
	if f.SetName("nope", 1) {
		t.Fatalf("SetName of unknown symbol reported success")
	}
	f.Reset()
	if _, ok := f.Get(n); ok {
		t.Fatalf("Reset left slot bound")
	}
	if f.tab != tab {
		t.Fatalf("Tab mismatch")
	}
}

func TestFrameGrowsForLateSlots(t *testing.T) {
	tab := NewSymTab()
	tab.Slot("N")
	f := tab.NewFrame()
	late := tab.Slot("LATE") // assigned after the frame was built
	if _, ok := f.Get(late); ok {
		t.Fatalf("out-of-range slot read as bound")
	}
	f.Set(late, 7)
	if v, ok := f.Get(late); !ok || v != 7 {
		t.Fatalf("Get(late) = %d,%v want 7,true", v, ok)
	}
}

func TestFrameBindIgnoresUnknownNames(t *testing.T) {
	tab := NewSymTab()
	tab.Slot("N")
	f := tab.NewFrame()
	f.Bind(Env{"N": 3, "GHOST": 9})
	if v, ok := getName(f, "N"); !ok || v != 3 {
		t.Fatalf("N = %d,%v want 3,true", v, ok)
	}
	if _, ok := tab.Lookup("GHOST"); ok {
		t.Fatalf("Bind assigned a slot for an unknown name")
	}
}

// names returns the table's names in slot order.
func names(t *SymTab) []string {
	out := make([]string, t.Len())
	for i := range out {
		out[i] = t.Name(i)
	}
	return out
}

// getName is Frame.Get by symbol name.
func getName(f *Frame, name string) (int64, bool) {
	slot, ok := f.tab.Lookup(name)
	if !ok {
		return 0, false
	}
	return f.Get(slot)
}
