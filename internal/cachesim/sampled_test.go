package cachesim

import (
	"math/rand"
	"testing"
)

// synthTrace builds a deterministic synthetic trace with reuse at several
// scales: a working set swept repeatedly plus random accesses over a larger
// space.
func synthTrace(r *rand.Rand, addrSpace int64, n int) []int64 {
	out := make([]int64, 0, n)
	for len(out) < n {
		// A sequential sweep of a small working set (short stack distances)…
		ws := int64(64 + r.Intn(256))
		base := r.Int63n(addrSpace - ws)
		for i := int64(0); i < ws && len(out) < n; i++ {
			out = append(out, base+i)
		}
		// …interleaved with uniform accesses (long distances).
		for i := 0; i < 128 && len(out) < n; i++ {
			out = append(out, r.Int63n(addrSpace))
		}
	}
	return out
}

func feed(sim interface{ AccessBlock([]int32, []int64) }, addrs []int64, blockSize int) {
	sites := make([]int32, blockSize)
	for i := 0; i < len(addrs); i += blockSize {
		end := i + blockSize
		if end > len(addrs) {
			end = len(addrs)
		}
		sim.AccessBlock(sites[:end-i], addrs[i:end])
	}
}

// TestSampledRateOneIsExact: Log2Rate 0 must reproduce the exact simulator
// bit for bit — results, stats, and a zero bound.
func TestSampledRateOneIsExact(t *testing.T) {
	addrs := synthTrace(rand.New(rand.NewSource(1)), 1<<14, 50000)
	watches := []int64{1, 64, 1024, 1 << 13}

	exact := NewStackSim(1<<14, 1, watches)
	feed(exact, addrs, 4096)
	sampled := NewSampledSim(1<<14, 1, watches, 0, 0)
	feed(sampled, addrs, 4096)

	er, sr := exact.Results(), sampled.Results()
	if er.Accesses != sr.Accesses || er.Distinct != sr.Distinct {
		t.Fatalf("rate-1 totals differ: exact %d/%d sampled %d/%d",
			er.Accesses, er.Distinct, sr.Accesses, sr.Distinct)
	}
	for i := range watches {
		if er.Misses[i] != sr.Misses[i] {
			t.Fatalf("rate-1 misses differ at watch %d: %d vs %d", watches[i], er.Misses[i], sr.Misses[i])
		}
	}
	if b := sampled.MissBound(0.05); b != 0 {
		t.Fatalf("rate-1 bound = %d, want 0", b)
	}
	if st := sampled.Stats(); st.SampledAccesses != st.TotalAccesses {
		t.Fatalf("rate-1 sampled %d of %d accesses", st.SampledAccesses, st.TotalAccesses)
	}
}

// TestSampledDeterministicAcrossBlockSizes: the estimate is a pure function
// of the trace and seed, independent of how accesses are batched.
func TestSampledDeterministicAcrossBlockSizes(t *testing.T) {
	addrs := synthTrace(rand.New(rand.NewSource(2)), 1<<16, 80000)
	watches := []int64{128, 4096}
	var ref Results
	for i, bs := range []int{1, 7, 512, 65536} {
		s := NewSampledSim(1<<16, 1, watches, 3, 0)
		feed(s, addrs, bs)
		r := s.Results()
		if i == 0 {
			ref = r
			continue
		}
		if r.Accesses != ref.Accesses || r.Distinct != ref.Distinct {
			t.Fatalf("block size %d changed totals: %+v vs %+v", bs, r, ref)
		}
		for wi := range watches {
			if r.Misses[wi] != ref.Misses[wi] {
				t.Fatalf("block size %d changed misses[%d]: %d vs %d", bs, wi, r.Misses[wi], ref.Misses[wi])
			}
		}
	}
}

// TestSampledWithinBound: on a trace large enough for the estimator to
// engage, every per-capacity estimate must land inside the reported
// Hoeffding envelope around the exact count (fixed seed — deterministic).
func TestSampledWithinBound(t *testing.T) {
	addrs := synthTrace(rand.New(rand.NewSource(3)), 1<<18, 400000)
	watches := []int64{256, 4096, 1 << 15}

	exact := NewStackSim(1<<18, 1, watches)
	feed(exact, addrs, 8192)
	k := DefaultLog2Rate(1 << 18)
	if k == 0 {
		t.Fatalf("expected a non-trivial sampling rate for a %d-element space", 1<<18)
	}
	sampled := NewSampledSim(1<<18, 1, watches, k, 0)
	feed(sampled, addrs, 8192)

	er, sr := exact.Results(), sampled.Results()
	bound := sampled.MissBound(0.05)
	if bound <= 0 || bound >= er.Accesses {
		t.Fatalf("degenerate bound %d for %d accesses", bound, er.Accesses)
	}
	for i, w := range watches {
		diff := er.Misses[i] - sr.Misses[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > bound {
			t.Errorf("watch %d: exact %d vs estimate %d differ by %d > bound %d",
				w, er.Misses[i], sr.Misses[i], diff, bound)
		}
	}
	// Distinct-address estimate: unbiased by the address-sampling rate;
	// allow the same envelope.
	if diff := er.Distinct - sr.Distinct; diff > bound || -diff > bound {
		t.Errorf("distinct: exact %d vs estimate %d beyond bound %d", er.Distinct, sr.Distinct, bound)
	}
	// Per-site totals are exact counts, never estimates.
	if sr.PerSite[0].Accesses != er.Accesses {
		t.Errorf("per-site access total %d, want exact %d", sr.PerSite[0].Accesses, er.Accesses)
	}
}

// TestParseEngine pins the engine taxonomy.
func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
		ok   bool
	}{
		{"", EngineExact, true},
		{"exact", EngineExact, true},
		{"analytic", EngineAnalytic, true},
		{"sampled", EngineSampled, true},
		{"Exact", "", false},
		{"bogus", "", false},
	} {
		got, err := ParseEngine(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseEngine(%q) = %q, %v; want %q, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if len(Engines()) != 3 {
		t.Errorf("Engines() = %v, want 3 entries", Engines())
	}
}
