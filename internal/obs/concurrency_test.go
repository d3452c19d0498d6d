package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentCounters hammers one registry from 64 goroutines — counter
// adds, gauge sets, timer observations, and registry lookups under distinct
// and shared names — and asserts the shared counter's total is exact. Run
// under `go test -race` (the Makefile's check target does) this is the
// package's data-race gate.
func TestConcurrentCounters(t *testing.T) {
	const goroutines = 64
	const perG = 1000
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := m.Counter(fmt.Sprintf("own.%d", g))
			shared := m.Counter("shared")
			gauge := m.Gauge("gauge")
			timer := m.Timer("timer")
			for i := 0; i < perG; i++ {
				shared.Inc()
				own.Add(2)
				gauge.Set(int64(i))
				timer.Observe(time.Nanosecond)
				// Re-resolving by name concurrently must be safe and stable.
				if m.Counter("shared") != shared {
					t.Error("shared counter identity changed")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := m.Counter("shared").Load(); got != goroutines*perG {
		t.Errorf("shared counter = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		if got := m.Counter(fmt.Sprintf("own.%d", g)).Load(); got != 2*perG {
			t.Errorf("own.%d = %d, want %d", g, got, 2*perG)
		}
	}
	if got := m.Timer("timer").Stats().Count; got != goroutines*perG {
		t.Errorf("timer count = %d, want %d", got, goroutines*perG)
	}
}

// TestConcurrentTraceSpans opens, annotates and closes spans from many
// goroutines while another goroutine snapshots records.
func TestConcurrentTraceSpans(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("root")
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				tr.Records()
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s := tr.Start("work")
				s.SetAttr("i", int64(i))
				s.End()
			}
		}(g)
	}
	wg.Wait()
	close(done)
	root.End()
	recs := tr.Records()
	if len(recs) != 1+16*100 {
		t.Errorf("got %d spans, want %d", len(recs), 1+16*100)
	}
}
