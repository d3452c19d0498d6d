package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStackSimBasic(t *testing.T) {
	s := NewStackSim(16, 1, []int64{2})
	var sds []int64
	s.OnSD = func(_ int, sd int64) { sds = append(sds, sd) }
	// Trace: a b a b c a
	for _, addr := range []int64{0, 1, 0, 1, 2, 0} {
		s.access(0, addr)
	}
	want := []int64{InfSD, InfSD, 2, 2, InfSD, 3}
	if len(sds) != len(want) {
		t.Fatalf("got %d SDs", len(sds))
	}
	for i := range want {
		if sds[i] != want[i] {
			t.Fatalf("sd[%d] = %d want %d (all %v)", i, sds[i], want[i], sds)
		}
	}
	r := s.Results()
	if r.Accesses != 6 || r.Distinct != 3 {
		t.Fatalf("accesses=%d distinct=%d", r.Accesses, r.Distinct)
	}
	// Capacity 2: misses = 3 compulsory + final access with sd 3.
	m, err := r.MissesFor(2)
	if err != nil || m != 4 {
		t.Fatalf("misses@2 = %d, %v", m, err)
	}
}

func TestStackSimRepeatedSameAddress(t *testing.T) {
	s := NewStackSim(4, 1, []int64{1})
	for i := 0; i < 5; i++ {
		s.access(0, 2)
	}
	r := s.Results()
	m, _ := r.MissesFor(1)
	if m != 1 {
		t.Fatalf("repeated access misses = %d want 1 (compulsory only)", m)
	}
	if r.Hist[1] != 4 { // four accesses at sd == 1
		t.Fatalf("hist[1] = %d want 4", r.Hist[1])
	}
}

func TestStackSimMatchesNaiveRandom(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		space := int64(r.Intn(40) + 2)
		n := r.Intn(3000) + 10
		sim := NewStackSim(space, 1, nil)
		naive := &NaiveStack{}
		ok := true
		var badAt int
		var got, want int64
		i := 0
		sim.OnSD = func(_ int, sd int64) {
			if !ok {
				return
			}
			got = sd
		}
		for ; i < n; i++ {
			addr := int64(r.Intn(int(space)))
			want = naive.Access(addr)
			sim.access(0, addr)
			if got != want {
				ok = false
				badAt = i
				break
			}
		}
		if !ok {
			t.Fatalf("trial %d: access %d sd=%d naive=%d", trial, badAt, got, want)
		}
		if int(sim.Results().Distinct) != naive.Depth() {
			t.Fatalf("trial %d: distinct %d vs naive %d", trial, sim.Results().Distinct, naive.Depth())
		}
	}
}

// TestStackSimCompaction forces many timeline compactions by running a trace
// much longer than the address space and cross-checks against the naive
// stack.
func TestStackSimCompaction(t *testing.T) {
	const space = 8
	r := rand.New(rand.NewSource(11))
	sim := NewStackSim(space, 1, nil)
	naive := &NaiveStack{}
	var got int64
	sim.OnSD = func(_ int, sd int64) { got = sd }
	for i := 0; i < 100000; i++ {
		addr := int64(r.Intn(space))
		want := naive.Access(addr)
		sim.access(0, addr)
		if got != want {
			t.Fatalf("access %d: sd=%d naive=%d", i, got, want)
		}
	}
}

func TestMissesMonotoneInCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	watches := []int64{1, 2, 4, 8, 16, 32}
	sim := NewStackSim(64, 1, watches)
	for i := 0; i < 20000; i++ {
		sim.access(0, int64(r.Intn(64)))
	}
	res := sim.Results()
	for i := 1; i < len(watches); i++ {
		if res.Misses[i] > res.Misses[i-1] {
			t.Fatalf("misses not monotone: %v", res.Misses)
		}
	}
	// Histogram accounts for every non-compulsory access.
	var histSum int64
	for _, h := range res.Hist {
		histSum += h
	}
	if histSum+res.Distinct != res.Accesses {
		t.Fatalf("hist sum %d + distinct %d != accesses %d", histSum, res.Distinct, res.Accesses)
	}
}

func TestPerSiteStats(t *testing.T) {
	sim := NewStackSim(8, 2, []int64{1})
	sim.access(0, 0)
	sim.access(1, 1)
	sim.access(0, 0) // sd 2 -> miss at cap 1
	sim.access(1, 1) // sd 2 -> miss at cap 1
	sim.access(1, 1) // sd 1 -> hit at cap 1
	res := sim.Results()
	if res.PerSite[0].Accesses != 2 || res.PerSite[1].Accesses != 3 {
		t.Fatalf("per-site accesses %+v", res.PerSite)
	}
	if res.PerSite[0].Misses[0] != 2 || res.PerSite[1].Misses[0] != 2 {
		t.Fatalf("per-site misses %+v", res.PerSite)
	}
	if res.PerSite[0].FirstTouch != 1 || res.PerSite[1].FirstTouch != 1 {
		t.Fatalf("per-site first touches %+v", res.PerSite)
	}
}

func TestQuickStackSimEqualsNaive(t *testing.T) {
	f := func(seed int64, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		sim := NewStackSim(256, 1, nil)
		naive := &NaiveStack{}
		var got int64
		sim.OnSD = func(_ int, sd int64) { got = sd }
		for _, b := range raw {
			want := naive.Access(int64(b))
			sim.access(0, int64(b))
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMissesForUnknownCapacity(t *testing.T) {
	sim := NewStackSim(4, 1, []int64{2})
	sim.access(0, 1)
	res := sim.Results()
	if _, err := res.MissesFor(99); err == nil {
		t.Fatal("expected error for unwatched capacity")
	}
}

func TestMissesAtLeastBound(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	sim := NewStackSim(128, 1, []int64{16})
	for i := 0; i < 50000; i++ {
		sim.access(0, int64(r.Intn(128)))
	}
	res := sim.Results()
	exact, _ := res.MissesFor(16)
	lower := missesAtLeast(res, 16)
	if lower > exact {
		t.Fatalf("missesAtLeast(16)=%d exceeds exact %d", lower, exact)
	}
}

func TestSDHistogramString(t *testing.T) {
	sim := NewStackSim(4, 1, nil)
	sim.access(0, 0)
	sim.access(0, 0)
	out := sim.Results().SDHistogramString()
	if out == "" {
		t.Fatal("empty histogram rendering")
	}
}
