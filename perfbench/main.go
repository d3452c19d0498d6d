// Command perfbench is the repository's benchmark. It starts the served
// analysis system in-process, drives one seeded workload with a closed
// loop of two clients, checks every answer byte for byte against
// Service.Compute on a separate Service, and prints one stamped JSON row
// per metric followed, as its last line, by the result object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
//
// With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.
// With --trace 1 the run is split in two halves: a traced half, which
// records a span around every HTTP call and, on a cold workload, replays
// each request right after its answer through the layers' public calls,
// one span per call; and an untraced half it is compared with. A routed
// workload then measures the router's hop in a pass of its own. The
// metrics are the per-layer ones, and the spans go to .bench_build/spans.
//
// Build and run it from the repository root with
//
//	sh perfbench/run.sh --workload point-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/service"
)

// setupRuns is how often a run starts the served system, and the last
// start serves the workload. setup_s is the interquartile mean of the
// start times, the mean of their middle half: like the median it ignores
// the slowest and fastest starts, but it does not jump when the times fall
// into two groups of about equal size.
const setupRuns = 101

// startPause is how long the benchmark idles before each timed start, so
// that every start begins in an idle process, as a real one does. Started
// back to back, each start ran in whatever state the one before left the
// runtime's and the host's threads; the times then switched between a fast
// and a slow level every tenth of a second or so, and a run's figure
// swung by a third from one run to the next.
const startPause = 10 * time.Millisecond

// spansDir is where the traced run writes its spans, inside the checkout.
const spansDir = ".bench_build/spans"

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's requests are generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "seconds of measured load")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	// The router's prober dials its replicas through the default transport.
	http.DefaultTransport.(*http.Transport).DialContext = dialNoLinger
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one value of the result object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one stamped metric line.
type row struct {
	Layer    string   `json:"layer"`
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Value    float64  `json:"value"`
	Unit     string   `json:"unit"`
	Samples  int      `json:"samples"`
	Seed     int64    `json:"seed"`
	Commit   string   `json:"commit"`
	Host     host     `json:"host"`
	Moves    []string `json:"moves,omitempty"`
	NoChange []string `json:"no_change,omitempty"`
}

func run(o options, out io.Writer) error {
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return err
	}
	h := stamp()
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true, DialContext: dialNoLinger}
	hc := &http.Client{Transport: tr, Timeout: time.Minute}

	setups, sys, err := timeStarts(w.routed, hc)
	if err != nil {
		return err
	}
	b := &bench{w: w, sys: sys, hc: hc, oracle: service.New(service.Config{})}
	res, rows, err := b.run(o, h, setups)
	b.oracle.Close()
	closeIdle(hc)
	if stopErr := sys.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return enc.Encode(res)
}

// timeStarts starts the served system setupRuns times and times each
// start. It stops every system but the last, which it returns.
func timeStarts(routed bool, hc *http.Client) ([]time.Duration, *system, error) {
	times := make([]time.Duration, 0, setupRuns)
	for {
		time.Sleep(startPause)
		s, d, err := startSystem(routed, hc)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d)
		if len(times) == setupRuns {
			return times, s, nil
		}
		closeIdle(hc)
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// run measures the workload on the started system and returns the result
// object and its stamped rows.
func (b *bench) run(o options, h host, setups []time.Duration) (*result, []row, error) {
	if b.w.script != nil {
		if err := b.warmHot(); err != nil {
			return nil, nil, err
		}
	}
	d := time.Duration(o.seconds) * time.Second
	res := &result{Metrics: map[string]metric{}}
	var rows []row
	emit := func(layer, name string, v float64, unit string, samples int, lm *layerMetric) {
		r := row{Layer: layer, Workload: b.w.name, Metric: name, Value: v, Unit: unit, Samples: samples, Seed: o.seed, Commit: h.Commit, Host: h}
		if lm != nil {
			r.Moves, r.NoChange = lm.moves, lm.noChange()
		}
		rows = append(rows, r)
	}
	if o.trace == 0 {
		win := b.measure(d)
		b.verify(win)
		b.reportFailures([]*window{win})
		s := summarize(win)
		res.Correct = b.check(win, s)
		res.Attempted, res.Failed = s.attempted, s.failed
		e2e := []struct {
			name    string
			v       float64
			unit    string
			samples int
		}{
			{"setup_s", interquartileMean(setups).Seconds(), "s", len(setups)},
			{"throughput_rps", s.perSecond(int64(s.ok)), "req/s", s.ok},
			{"items_per_s", s.perSecond(s.items), "items/s", s.ok},
			{"latency_p50_ms", ms(s.quantile(0.50)), "ms", len(s.lat)},
			{"latency_p99_ms", ms(s.quantile(0.99)), "ms", len(s.lat)},
			{"mem_peak_mb", float64(win.memPeak) / (1 << 20), "MB", 1},
		}
		for _, m := range e2e {
			res.Metrics[m.name] = metric{m.v, m.unit}
			emit("e2e", m.name, m.v, m.unit, m.samples, nil)
		}
		// Reported but not in BENCHMARK.json: both read 0 on some workloads.
		emit("e2e", "failed_ratio", ratio(int64(s.failed), int64(s.attempted)), "ratio", s.attempted, nil)
		if s.accesses > 0 {
			emit("e2e", "accesses_per_s", s.perSecond(s.accesses), "accesses/s", s.ok, nil)
		}
		if len(s.lat) < 1000 {
			fmt.Fprintf(os.Stderr, "perfbench: %s: p99 from %d samples has fewer than 10 beyond it\n", b.w.name, len(s.lat))
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests (%d failed) in %.2fs, %.1f req/s, %.1f items/s, p50 %.3fms p99 %.3fms, mem %.1fMB, setup %.2fms\n",
			b.w.name, o.seed, s.attempted, s.failed, s.elapsed.Seconds(), s.perSecond(int64(s.ok)), s.perSecond(s.items),
			ms(s.quantile(0.5)), ms(s.quantile(0.99)), float64(win.memPeak)/(1<<20), interquartileMean(setups).Seconds()*1e3)
		return res, rows, nil
	}

	t := newTracer(b)
	defer t.close()
	b.tr = t
	traced := b.measure(d / 2)
	b.tr = nil
	plain := b.measure(d - d/2)
	var hops [clients][]outcome
	if b.sys.local != nil {
		var err error
		if hops, err = t.hops(b.sys.local.Replicas(), d/4); err != nil {
			return nil, nil, err
		}
	}
	b.verify(traced)
	b.verify(plain)
	b.reportFailures([]*window{traced, plain})
	ts, ps := summarize(traced), summarize(plain)
	res.Correct = b.check(traced, ts) && b.check(plain, ps)
	res.Attempted, res.Failed = ts.attempted+ps.attempted, ts.failed+ps.failed
	for c := range hops {
		for _, o := range hops[c] {
			res.Attempted++
			if o.status != http.StatusOK || !o.match {
				res.Failed++
				res.Correct = false
			}
		}
	}
	vals, cons := t.layerValues(traced, ts, ps)
	if !cons.ok() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d replayed requests have layer self times summing to more than %.1f× their HTTP latency (at most %.0f%% may)\n",
			b.w.name, cons.violations, cons.replayed, maxSelfOverHTTP, 100*maxViolationShare)
		res.Correct = false
	}
	for i := range layerMetrics {
		lm := &layerMetrics[i]
		v := vals[lm.name]
		res.Metrics[lm.name] = metric{v, lm.unit}
		emit(layerOf(lm.name), lm.name, v, lm.unit, ts.attempted, lm)
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.jsonl", b.w.name, o.seed))
	if err := t.writeSpans(path); err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d traced: %d+%d requests (%d failed), http p50 %.3fms traced vs %.3fms untraced (overhead %+.1f%%), %d of %d replays over %.1f× their HTTP latency, spans in %s\n",
		b.w.name, o.seed, ts.attempted, ps.attempted, res.Failed, vals["bench.traced_p50_ms"], vals["bench.untraced_p50_ms"],
		100*vals["bench.tracing_overhead"], cons.violations, cons.replayed, maxSelfOverHTTP, path)
	return res, rows, nil
}

// check reports whether a verified window is a correct run of its
// workload: no failure, no client ran off its slice, and the response
// cache shows the shape the workload claims (all hits when hot, none when
// cold).
func (b *bench) check(win *window, s summary) bool {
	ok := s.failed == 0
	for _, ex := range win.exhausted {
		if ex {
			fmt.Fprintf(os.Stderr, "perfbench: %s: a client used up its slice of %d requests\n", b.w.name, b.w.limit)
			ok = false
		}
	}
	hr := hitRatio(win.before, win.after, "service.cache")
	if hot := b.w.script != nil; (hot && hr < 0.99) || (!hot && hr > 0.01) {
		fmt.Fprintf(os.Stderr, "perfbench: %s: response-cache hit ratio %.4f is mis-shaped\n", b.w.name, hr)
		ok = false
	}
	return ok
}

// layerOf names the layer a per-layer metric belongs to.
func layerOf(name string) string {
	prefix, _, _ := strings.Cut(name, ".")
	switch prefix {
	case "router":
		return "cluster"
	case "analyze", "evalcache":
		return "core"
	case "search", "plansearch":
		return "tilesearch"
	}
	return prefix
}

// interquartileMean is the mean of the middle half of ds.
func interquartileMean(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum time.Duration
	for _, d := range mid {
		sum += d
	}
	return sum / time.Duration(len(mid))
}
