package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
)

// bench drives one workload against one served system.
type bench struct {
	w      *workload
	sys    *system
	hc     *http.Client
	oracle *service.Service // Service.Compute, apart from the served system
	next   [clients]int     // next request index of each client's walk
	tr     *tracer          // set during the traced window only
}

// outcome is one request's observation, in 16 bytes: a window holds one
// per request, and what the window holds counts in mem_peak_mb.
type outcome struct {
	lat    time.Duration // from send to the last body byte
	k      int32         // request index in the client's walk
	status int16         // HTTP status; 0 on a transport error
	items  uint8         // work items a 200 answers; batches hold at most 64 rows
	match  bool          // the body is byte-identical to the oracle's
}

// digest stands for a cold answer's body until the check after the window:
// the first half of its SHA-256.
type digest [16]byte

func digestOf(body []byte) digest {
	sum := sha256.Sum256(body)
	return digest(sum[:16])
}

// outcomes holds one client's observations of a window and, on a cold
// workload, the digest of each answer, in room reserved before the window
// opens. Grown during the window, the storage would add to mem_peak_mb in
// proportion to the run's request count, so the figure would follow
// throughput; reserved, it is the same in every run that stays within it.
type outcomes struct {
	list    []outcome
	digests []digest // cold workloads only, parallel to list
}

func newOutcomes(reserve int, cold bool) outcomes {
	oc := outcomes{list: make([]outcome, 0, reserve)}
	if cold {
		oc.digests = make([]digest, 0, reserve)
	}
	return oc
}

func (oc *outcomes) add(o outcome, d digest) {
	oc.list = append(oc.list, o)
	if oc.digests != nil {
		oc.digests = append(oc.digests, d)
	}
}

// window is one measured closed-loop interval.
type window struct {
	elapsed       time.Duration
	outcomes      [clients]outcomes
	exhausted     [clients]bool
	accesses      int64            // trace accesses the checked simulations walked
	memPeak       uint64           // bytes mapped by the runtime, peak
	before, after map[string]int64 // served counters around the window
}

// measure runs the closed loop for d: each client sends its next request
// as soon as the previous answer has arrived, until the deadline; requests
// in flight at the deadline finish and count.
func (b *bench) measure(d time.Duration) *window {
	win := &window{}
	for c := range win.outcomes {
		win.outcomes[c] = newOutcomes(b.w.reserve, b.w.script == nil)
	}
	runtime.GC() // the garbage of what came before is not the window's
	win.before = b.sys.m.Counters()
	stopMem := sampleMemory(&win.memPeak)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			win.exhausted[c] = b.walk(c, deadline, &win.outcomes[c])
		}(c)
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	stopMem()
	win.after = b.sys.m.Counters()
	return win
}

// walk is one client's loop. It reports whether the client ran off the end
// of its slice, which a cold run must never do.
func (b *bench) walk(c int, deadline time.Time, out *outcomes) bool {
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		k := b.next[c]
		if b.w.limit > 0 && k >= b.w.limit {
			return true
		}
		b.next[c]++
		r := b.w.request(c, k)
		var o outcome
		var sum digest
		if b.tr != nil {
			o, sum = b.tr.call(c, k, r, &buf)
		} else {
			o, _, sum = b.send(b.sys.url, r, &buf)
		}
		o.k = int32(k)
		out.add(o, sum)
	}
	return false
}

// send posts one request and reads the whole answer, and returns when it
// was sent. A 200 is compared with the script's oracle bytes when it has
// them, else digested for the check after the window.
func (b *bench) send(base string, r request, buf *bytes.Buffer) (o outcome, start time.Time, sum digest) {
	o.items = uint8(r.items)
	start = time.Now()
	resp, err := b.hc.Post(base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		o.lat = time.Since(start)
		return o, start, sum
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	o.lat = time.Since(start)
	if err != nil {
		return o, start, sum
	}
	o.status = int16(resp.StatusCode)
	if o.status == http.StatusOK {
		if r.want != nil {
			o.match = bytes.Equal(buf.Bytes(), r.want)
		} else {
			sum = digestOf(buf.Bytes())
		}
	}
	return o, start, sum
}

// sampleMemory tracks the peak of the memory the Go runtime has mapped
// from the OS until the returned stop function is called.
func sampleMemory(peak *uint64) (stop func()) {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > *peak {
			*peak = v
		}
	}
	read()
	done, finished := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		read()
	}
}

// warmHot computes the oracle's bytes for every script entry, then sends
// the script once, untimed, so every key is cached before anything is
// measured.
func (b *bench) warmHot() error {
	for i := range b.w.script {
		r := &b.w.script[i]
		want, err := b.oracle.Compute(context.Background(), r.path, r.body)
		if err != nil {
			return fmt.Errorf("oracle for script entry %d (%s): %w", i, r.path, err)
		}
		r.want = want
	}
	var buf bytes.Buffer
	for _, r := range b.w.script {
		b.send(b.sys.url, r, &buf)
	}
	return nil
}

// verify checks every 200 of a cold window that the traced replay has not
// already checked against the oracle's Service.Compute, after the window,
// one checker per client.
func (b *bench) verify(win *window) {
	if b.w.script != nil {
		return // compared inline against the precomputed oracle
	}
	var wg sync.WaitGroup
	var accesses [clients]int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			oc := &win.outcomes[c]
			for i := range oc.list {
				o := &oc.list[i]
				if o.status != http.StatusOK || o.match {
					continue
				}
				r := b.w.request(c, int(o.k))
				want, err := b.oracle.Compute(context.Background(), r.path, r.body)
				o.match = err == nil && digestOf(want) == oc.digests[i]
				if o.match && r.path == "/v1/simulate" {
					accesses[c] += walkedAccesses(want)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, n := range accesses {
		win.accesses += n
	}
}

// walkedAccesses is the trace length a /v1/simulate answer's engine walked:
// zero for the analytic engine, which generates no trace.
func walkedAccesses(data []byte) int64 {
	var v struct {
		Engine string `json:"engine"`
		Length int64  `json:"length"`
	}
	if json.Unmarshal(data, &v) != nil || v.Engine == "analytic" {
		return 0
	}
	return v.Length
}

// reportFailures prints the first few failed requests of the windows.
func (b *bench) reportFailures(wins []*window) {
	shown := 0
	for _, win := range wins {
		for c := range win.outcomes {
			for _, o := range win.outcomes[c].list {
				if (o.status == http.StatusOK && o.match) || shown == 3 {
					continue
				}
				shown++
				r := b.w.request(c, int(o.k))
				fmt.Fprintf(os.Stderr, "perfbench: %s: client %d request %d %s failed (status %d): %.300s\n",
					b.w.name, c, o.k, r.path, o.status, r.body)
			}
		}
	}
}

// summary condenses a window's outcomes.
type summary struct {
	attempted, ok, failed int
	items, accesses       int64
	lat                   []time.Duration // of the 200s, ascending
	elapsed               time.Duration
}

// summarize counts a verified window. A failure is a non-200, a transport
// error, or a body that differs from the oracle's.
func summarize(win *window) summary {
	s := summary{elapsed: win.elapsed, accesses: win.accesses}
	for c := range win.outcomes {
		for _, o := range win.outcomes[c].list {
			s.attempted++
			if o.status != http.StatusOK || !o.match {
				s.failed++
				continue
			}
			s.ok++
			s.items += int64(o.items)
			s.lat = append(s.lat, o.lat)
		}
	}
	sort.Slice(s.lat, func(i, j int) bool { return s.lat[i] < s.lat[j] })
	return s
}

// quantile is the nearest-rank q-quantile of the 200 latencies.
func (s summary) quantile(q float64) time.Duration {
	if len(s.lat) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s.lat)))) - 1
	if i < 0 {
		i = 0
	}
	return s.lat[i]
}

func (s summary) perSecond(n int64) float64 { return float64(n) / s.elapsed.Seconds() }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
