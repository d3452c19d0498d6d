package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cachesim"
	"repro/internal/cachesim/analytic"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/expr"
	"repro/internal/loopir"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/tilesearch"
	"repro/internal/trace"
)

// maxBatchItems is the service's default cap on the rows of one batch.
const maxBatchItems = 256

// A replayed request is inconsistent when its serial self times sum to more
// than maxSelfOverHTTP times its HTTP latency, and a traced run when more
// than maxViolationShare of its replayed requests are. The replay repeats
// the service's work right after the HTTP call and alone, so it takes about
// as long as the call less its HTTP handling: a compute-bound request's
// ratio centres on 0.9–1.0. On the 2-vCPU reference host, back-to-back runs
// of one computation still differ by up to 2×, and in seventeen traced runs
// of the cold workloads 0.2–9% of the replayed requests went over 1.5×. A
// replay that timed a piece of work twice would put most compute-bound
// requests over it.
const (
	maxSelfOverHTTP   = 1.5
	maxViolationShare = 0.2
)

// span is one interval of the traced run, recorded by the benchmark around
// a call into one layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced run began
	End    int64  `json:"end_ns"`
	// Units is the work inside the call where it has a natural count:
	// accesses, candidates, keys, components, programs or batch rows.
	Units int64 `json:"units,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps one client's spans in memory; only that client appends.
type recorder struct {
	epoch time.Time
	base  int64 // span ids of client c are (c+1)<<40 plus a sequence number
	seq   int64
	spans []span
}

func (rc *recorder) newID() int64 {
	rc.seq++
	return rc.base | rc.seq
}

// add records a finished span under an id from newID.
func (rc *recorder) add(id, req, parent int64, name string, start, end time.Time, units int64) {
	rc.spans = append(rc.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(rc.epoch)), End: int64(end.Sub(rc.epoch)), Units: units,
	})
}

// time runs f inside a span; f returns the span's units.
func (rc *recorder) time(req, parent int64, name string, f func() int64) {
	start := time.Now()
	units := f()
	rc.add(rc.newID(), req, parent, name, start, time.Now(), units)
}

// tracer is the traced run. It records a span around every HTTP call of
// the traced window and, on a cold workload, replays the request through
// the layers' public calls right after its answer has arrived. On a hot
// workload every answer comes from the service's caches, so there is
// nothing to replay.
type tracer struct {
	b  *bench
	rp *replayer // nil when hot
	// mu keeps replays apart from HTTP calls: a client holds it shared
	// while its request is on the wire and alone while it replays, so the
	// other client waits and the layer spans are timed under the host
	// conditions of the HTTP span they break down.
	mu  sync.RWMutex
	rec [clients]*recorder
}

func newTracer(b *bench) *tracer {
	t := &tracer{b: b}
	if b.w.script == nil {
		t.rp = newReplayer()
	}
	epoch := time.Now()
	for c := range t.rec {
		t.rec[c] = &recorder{epoch: epoch, base: int64(c+1) << 40}
	}
	return t
}

func (t *tracer) close() {
	if t.rp != nil {
		t.rp.svc.Close()
	}
}

// reqID identifies request k of client c in the spans; hopReq marks the
// requests of the hop pass.
func reqID(c, k int) int64 { return int64(c)<<32 | int64(k) }

const hopReq = int64(1) << 62

// call sends request k of client c in the traced window, records its HTTP
// span and replays it. A 200 whose answer the replay recomputed is
// verified against those bytes.
func (t *tracer) call(c, k int, r request, buf *bytes.Buffer) (outcome, digest) {
	t.mu.RLock()
	o, start, sum := t.b.send(t.b.sys.url, r, buf)
	t.mu.RUnlock()
	rc, req := t.rec[c], reqID(c, k)
	rc.add(rc.newID(), req, 0, "http", start, start.Add(o.lat), int64(r.items))
	if t.rp == nil {
		return o, sum
	}
	t.mu.Lock()
	data := t.rp.replay(rc, req, r)
	t.mu.Unlock()
	if data != nil && o.status == http.StatusOK {
		o.match = digestOf(data) == sum
	}
	return o, sum
}

// hops measures the router's hop after the measured windows: for d, both
// clients walk their single requests of the script, sending each through
// the router and then straight to the replica that owns its key. It
// returns both sends' outcomes, which are checked like every answer.
func (t *tracer) hops(replicas []string, d time.Duration) ([clients][]outcome, error) {
	var out [clients][]outcome
	ring, err := cluster.NewRing(replicas, 0)
	if err != nil {
		return out, err
	}
	script := t.b.w.script
	owners := make([]string, len(script))
	for i, r := range script {
		if r.path == "/v1/batch" {
			continue // the router splits a batch by row; it has no one owner
		}
		key, err := service.CanonicalKeyForRequest(r.path, r.body)
		if err != nil {
			return out, fmt.Errorf("key of script entry %d: %w", i, err)
		}
		owners[i] = ring.Owner(key)
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			rc := t.rec[c]
			for k := 0; time.Now().Before(deadline); k++ {
				i := (c*len(script)/clients + k) % len(script)
				if owners[i] == "" {
					continue
				}
				req := hopReq | reqID(c, k)
				routed, routedStart, _ := t.b.send(t.b.sys.url, script[i], &buf)
				direct, directStart, _ := t.b.send(owners[i], script[i], &buf)
				rc.add(rc.newID(), req, 0, "cluster.routed", routedStart, routedStart.Add(routed.lat), 0)
				rc.add(rc.newID(), req, 0, "cluster.direct", directStart, directStart.Add(direct.lat), 0)
				out[c] = append(out[c], routed, direct)
			}
		}(c)
	}
	wg.Wait()
	return out, nil
}

// replayer repeats requests through each layer's public calls on state of
// its own: a separate Service for Service.Compute, its own analyses, and
// registries for the instruments the layers export. The tracer's lock
// serializes its use.
type replayer struct {
	svc  *service.Service
	opts core.Options // the full model, with the analyze stage timers on

	searchObs, plansObs, simObs *obs.Metrics

	// analyses holds one analysis per canonical nest. A cold workload's
	// nests fit the service's analysis cache, so the service analyzes
	// each one once, on its first request, and so does the replay.
	analyses map[string]*core.Analysis
	progs    map[*core.Analysis][]*expr.Program
}

func newReplayer() *replayer {
	rp := &replayer{
		svc:       service.New(service.Config{}),
		opts:      core.DefaultOptions(),
		searchObs: obs.New(),
		plansObs:  obs.New(),
		simObs:    obs.New(),
		analyses:  map[string]*core.Analysis{},
		progs:     map[*core.Analysis][]*expr.Program{},
	}
	rp.opts.Obs = obs.New()
	return rp
}

// replay repeats, through each layer's public calls, the work the service
// did for a request of a cold workload, which misses every cache but the
// analysis cache: planning, then for every answer the analysis on its
// nest's first request and the endpoint's computation. The calls on the
// service's serial path are children of a "replay" span. Calls that repeat
// part of that path to break it down (parsing inside planning, trace
// generation inside a simulation, one evaluation of every expr program,
// Service.Compute as a whole) are root spans of their own, so the
// children's self times never count a piece of work twice. It returns
// Service.Compute's answer.
func (rp *replayer) replay(rc *recorder, req int64, r request) []byte {
	rp.breakdown(rc, req, r.body)
	root, start := rc.newID(), time.Now()
	work := rp.plan(rc, req, root, r)
	for _, w := range work {
		rp.compute(rc, req, root, w)
	}
	rc.add(root, req, 0, "replay", start, time.Now(), int64(len(work)))
	var data []byte
	rc.time(req, 0, "service.compute", func() int64 {
		var err error
		if data, err = rp.svc.Compute(context.Background(), r.path, r.body); err != nil {
			data = nil
		}
		return int64(len(work))
	})
	return data
}

// plan repeats the service's planning of a request: the canonical key of a
// single request, or the rows of a batch with theirs. It returns the
// answers the service computes.
func (rp *replayer) plan(rc *recorder, req, root int64, r request) []request {
	if r.path != "/v1/batch" {
		var err error
		rc.time(req, root, "service.key", func() int64 {
			_, err = service.CanonicalKeyForRequest(r.path, r.body)
			return 1
		})
		if err != nil {
			return nil
		}
		return []request{r}
	}
	var exp *service.BatchExpansion
	var err error
	rc.time(req, root, "service.key", func() int64 {
		if exp, err = service.ExpandBatch(r.body, maxBatchItems); err != nil {
			return 0
		}
		return int64(len(exp.Items))
	})
	if err != nil {
		return nil
	}
	var work []request
	for _, it := range exp.Items {
		if it.Err == nil {
			work = append(work, request{path: it.Path, body: it.Body, items: 1})
		}
	}
	return work
}

// replayBody is any single-endpoint body the workloads send, or a batch's
// candidates header.
type replayBody struct {
	nestFields
	geometry
	Watches    []int64          `json:"watches"`
	Engine     string           `json:"engine"`
	Dims       map[string]int64 `json:"dims"`
	Candidates *nestFields      `json:"candidates"`
}

// breakdown times the loopir calls inside planning an inline nest: parsing
// its source, and canonicalizing its spec (which parses again).
func (rp *replayer) breakdown(rc *recorder, req int64, body []byte) {
	var b replayBody
	if json.Unmarshal(body, &b) != nil {
		return
	}
	nf := b.nestFields
	if b.Candidates != nil {
		nf = *b.Candidates
	}
	if nf.Nest == "" {
		return
	}
	// A failure here fails the key derivation that follows, which counts it.
	rc.time(req, 0, "loopir.parse", func() int64 {
		_, _ = loopir.Parse(nf.Nest)
		return 0
	})
	rc.time(req, 0, "loopir.canonicalize", func() int64 {
		_, _, _ = (&loopir.Spec{Nest: nf.Nest, Env: nf.Env}).Canonicalize()
		return 0
	})
}

// resolve returns a problem's canonical nest source and bindings, as the
// service's planner derives them.
func resolve(nf nestFields) (string, expr.Env, error) {
	if nf.Kernel == "" {
		spec, _, err := (&loopir.Spec{Nest: nf.Nest, Env: nf.Env}).Canonicalize()
		if err != nil {
			return "", nil, err
		}
		return spec.Nest, spec.ExprEnv(), nil
	}
	nest, env, err := experiments.BuildKernel(nf.Kernel, nf.N, nf.Tiles)
	if err != nil {
		return "", nil, err
	}
	spec := loopir.SpecOf(nest, env)
	return spec.Nest, spec.ExprEnv(), nil
}

// compute replays one answer's computation.
func (rp *replayer) compute(rc *recorder, req, root int64, w request) {
	var b replayBody
	if json.Unmarshal(w.body, &b) != nil {
		return
	}
	src, env, err := resolve(b.nestFields)
	if err != nil {
		return
	}
	switch {
	case w.path == "/v1/simulate" && b.Engine != "analytic":
		rp.simulate(rc, req, root, src, env, b)
		return
	case w.path == "/v1/optimize":
		rp.optimize(rc, req, root, src, env, b)
		return
	}
	a := rp.analysis(rc, req, root, src)
	if a == nil {
		return
	}
	f := a.GetFrame()
	defer a.PutFrame(f)
	f.Bind(env)
	switch w.path {
	case "/v1/predict":
		cfg := core.CacheConfig{CapacityElems: b.CacheElems, Ways: b.Ways, LineElems: b.Line}
		if cfg.Ways > 0 {
			rc.time(req, root, "core.predict_conflict", func() int64 {
				_, _ = a.PredictMissesFrameConfig(f, cfg)
				return int64(len(a.Components))
			})
		} else {
			rc.time(req, root, "core.predict_fa", func() int64 {
				_, _ = a.PredictMissesFrame(f, cfg.CapacityElems)
				return int64(len(a.Components))
			})
		}
		rp.evalPrograms(rc, req, a, f)
	case "/v1/simulate":
		ws := sortedWatches(b.Watches)
		rc.time(req, root, "cachesim.analytic", func() int64 {
			_, _, _ = analytic.SimulateFrame(a, f, ws)
			return int64(len(ws))
		})
	case "/v1/tilesearch":
		var res *tilesearch.Result
		rc.time(req, root, "tilesearch.search", func() int64 {
			res, err = tilesearch.Search(a, tilesearch.Options{
				Dims:       tilesearch.SortedDims(b.Dims),
				CacheElems: b.CacheElems,
				Ways:       b.Ways,
				LineElems:  b.Line,
				BaseEnv:    env,
				Obs:        rp.searchObs,
			})
			if err != nil {
				return 0
			}
			return int64(res.Evaluated)
		})
		if err == nil {
			for sym, v := range res.Best.Tiles {
				f.SetName(sym, v)
			}
			rp.evalPrograms(rc, req, a, f)
		}
	}
}

// analysis returns the replay's analysis of a canonical nest, analyzing it
// (a parse, then core.AnalyzeWithOptions) on the nest's first request.
func (rp *replayer) analysis(rc *recorder, req, root int64, src string) *core.Analysis {
	if a, ok := rp.analyses[src]; ok {
		return a
	}
	var nest *loopir.Nest
	var err error
	rc.time(req, root, "loopir.parse", func() int64 {
		nest, err = loopir.Parse(src)
		return 0
	})
	if err != nil {
		return nil
	}
	var a *core.Analysis
	rc.time(req, root, "core.analyze", func() int64 {
		if a, err = core.AnalyzeWithOptions(nest, rp.opts); err != nil {
			return 0
		}
		return int64(len(a.Components))
	})
	if err != nil {
		return nil
	}
	rp.analyses[src] = a
	return a
}

// evalPrograms times expr.Program.Eval over every component program of
// the analysis, compiled against its symbol table, at the frame's
// bindings.
func (rp *replayer) evalPrograms(rc *recorder, req int64, a *core.Analysis, f *expr.Frame) {
	progs := rp.programs(a)
	rc.time(req, 0, "expr.eval", func() int64 {
		for _, p := range progs {
			_, _ = p.Eval(f)
		}
		return int64(len(progs))
	})
}

// programs compiles, once per analysis, the programs the compiled model
// evaluates per component: count, and unless the component is a first
// touch, its stack distance's base and, when it varies, slope and range.
func (rp *replayer) programs(a *core.Analysis) []*expr.Program {
	if ps, ok := rp.progs[a]; ok {
		return ps
	}
	var ps []*expr.Program
	add := func(e *expr.Expr) {
		if e != nil {
			ps = append(ps, expr.Compile(e, a.SymTab()))
		}
	}
	for _, c := range a.Components {
		add(c.Count)
		if c.SD.Base.IsInf() {
			continue
		}
		add(c.SD.Base)
		if !c.SD.IsConst() {
			add(c.SD.Slope)
			add(c.FreeRange)
		}
	}
	rp.progs[a] = ps
	return ps
}

// simulate replays an exact or sampled simulation: parse, trace compile,
// then the engine walking the trace (generation included). Generating the
// same trace into a no-op sink, as a root span of its own, separates the
// engine's cost from the generator's.
func (rp *replayer) simulate(rc *recorder, req, root int64, src string, env expr.Env, b replayBody) {
	var nest *loopir.Nest
	var err error
	rc.time(req, root, "loopir.parse", func() int64 {
		nest, err = loopir.Parse(src)
		return 0
	})
	if err != nil {
		return
	}
	var p *trace.Program
	rc.time(req, root, "trace.compile", func() int64 {
		p, err = trace.Compile(nest, env)
		return 0
	})
	if err != nil {
		return
	}
	n, err := p.Length()
	if err != nil {
		return
	}
	ws := sortedWatches(b.Watches)
	if b.Engine == "sampled" {
		rc.time(req, root, "cachesim.sampled", func() int64 {
			sim := cachesim.NewSampledSim(p.Size, len(p.Sites), ws, cachesim.DefaultLog2Rate(p.Size), 0)
			p.RunBlocks(trace.DefaultBlockSize, sim.AccessBlock)
			sim.Results()
			sim.FlushMetrics(rp.simObs)
			return n
		})
	} else {
		rc.time(req, root, "cachesim.exact", func() int64 {
			sim := cachesim.NewStackSim(p.Size, len(p.Sites), ws)
			p.RunBlocks(trace.DefaultBlockSize, sim.AccessBlock)
			sim.Results()
			sim.FlushMetrics(rp.simObs)
			return n
		})
	}
	rc.time(req, 0, "trace.gen", func() int64 {
		p.RunBlocks(trace.DefaultBlockSize, func([]int32, []int64) {})
		return n
	})
}

// optimize replays a joint plan search: parse, then SearchPlans. As a
// breakdown it enumerates the variants and analyzes each one, the work
// SearchPlans does before scoring them.
func (rp *replayer) optimize(rc *recorder, req, root int64, src string, env expr.Env, b replayBody) {
	var nest *loopir.Nest
	var err error
	rc.time(req, root, "loopir.parse", func() int64 {
		nest, err = loopir.Parse(src)
		return 0
	})
	if err != nil {
		return
	}
	opt := tilesearch.PlanOptions{
		Options: tilesearch.Options{
			CacheElems: b.CacheElems,
			Ways:       b.Ways,
			LineElems:  b.Line,
			BaseEnv:    env,
			Obs:        rp.plansObs,
		},
		Permute:  true,
		Fuse:     true,
		AutoTile: true,
	}
	rc.time(req, root, "tilesearch.plans", func() int64 {
		pr, err := tilesearch.SearchPlans(nest, opt)
		if err != nil {
			return 0
		}
		return int64(pr.Evaluated)
	})
	var variants []tilesearch.PlanVariant
	rc.time(req, 0, "tilesearch.enumerate", func() int64 {
		variants, _, err = tilesearch.EnumerateVariants(nest, opt)
		return int64(len(variants))
	})
	for _, v := range variants {
		rc.time(req, 0, "core.analyze", func() int64 {
			a, err := core.AnalyzeWithOptions(v.Nest, rp.opts)
			if err != nil {
				return 0
			}
			return int64(len(a.Components))
		})
	}
}

// sortedWatches normalizes a watch list as the service does.
func sortedWatches(ws []int64) []int64 {
	out := append([]int64(nil), ws...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	uniq := out[:0]
	for i, w := range out {
		if i == 0 || w != out[i-1] {
			uniq = append(uniq, w)
		}
	}
	return uniq
}

// reqSpans gathers one request's spans for the per-request measures.
type reqSpans struct {
	http, compute, serial int64
	rows                  int64 // work items of the HTTP call
	exact, sampled, gen   int64
	routed, direct        int64
	replayed, hasHop      bool
}

// consistency is the traced run's check that the layers break the HTTP
// latency down: of the replayed requests, those whose serial self times,
// over the parallelism the service could give them, exceed their HTTP
// latency by more than maxSelfOverHTTP.
type consistency struct{ violations, replayed int64 }

func (c consistency) ok() bool {
	return float64(c.violations) <= maxViolationShare*float64(c.replayed)
}

// layerValues computes the per-layer metrics from the spans and from the
// instruments the layers export. A layer's time is its spans' self time:
// each span's duration minus its children's.
func (t *tracer) layerValues(win *window, traced, untraced summary) (map[string]float64, consistency) {
	type agg struct{ calls, nanos, units int64 }
	byName := map[string]*agg{}
	roots := map[int64]bool{}
	children := map[int64]int64{} // span id → summed duration of its children
	for _, rc := range t.rec {
		for _, s := range rc.spans {
			if s.Name == "replay" {
				roots[s.ID] = true
			}
			if s.Parent != 0 {
				children[s.Parent] += s.dur()
			}
		}
	}
	reqs := map[int64]*reqSpans{}
	for _, rc := range t.rec {
		for _, s := range rc.spans {
			self := s.dur() - children[s.ID]
			a := byName[s.Name]
			if a == nil {
				a = &agg{}
				byName[s.Name] = a
			}
			a.calls++
			a.nanos += self
			a.units += s.Units
			rq := reqs[s.Req]
			if rq == nil {
				rq = &reqSpans{}
				reqs[s.Req] = rq
			}
			if roots[s.Parent] {
				rq.serial += self
			}
			switch s.Name {
			case "http":
				rq.http, rq.rows = self, s.Units
			case "replay":
				rq.replayed = true
			case "service.compute":
				rq.compute = self
			case "cachesim.exact":
				rq.exact += self
			case "cachesim.sampled":
				rq.sampled += self
			case "trace.gen":
				rq.gen += self
			case "cluster.routed":
				rq.routed, rq.hasHop = self, true
			case "cluster.direct":
				rq.direct = self
			}
		}
	}
	// The service computes a batch's rows on all its workers at once.
	workers := int64(runtime.GOMAXPROCS(0))
	var cons consistency
	var overhead, hop, direct, exactSelf, sampledSelf, nHTTP, nHop, httpSum, serialSum int64
	for _, rq := range reqs {
		if rq.hasHop {
			nHop++
			hop += rq.routed - rq.direct
			direct += rq.direct
			continue
		}
		if rq.http == 0 {
			continue
		}
		nHTTP++
		httpSum += rq.http
		serialSum += rq.serial
		overhead += rq.http - rq.compute
		if rq.replayed {
			cons.replayed++
			if float64(rq.serial) > maxSelfOverHTTP*float64(rq.http*min(max(rq.rows, 1), workers)) {
				cons.violations++
			}
		}
		if rq.exact > 0 {
			exactSelf += rq.exact - rq.gen
		}
		if rq.sampled > 0 {
			sampledSelf += rq.sampled - rq.gen
		}
	}
	get := func(name string) agg {
		if a := byName[name]; a != nil {
			return *a
		}
		return agg{}
	}
	meanUS := func(name string) float64 { a := get(name); return ratio(a.nanos, a.calls) / 1e3 }
	perUnit := func(name string) float64 { a := get(name); return ratio(a.nanos, a.units) }
	// A hot workload replays nothing, so its layers' instruments read 0.
	analyze, searchObs, plansObs, simObs := obs.New(), obs.New(), obs.New(), obs.New()
	if t.rp != nil {
		analyze, searchObs, plansObs, simObs = t.rp.opts.Obs, t.rp.searchObs, t.rp.plansObs, t.rp.simObs
	}
	stage := func(name string) float64 {
		st := analyze.Timers()[name]
		return ratio(st.Nanos, st.Count) / 1e3
	}
	search, plans, sim := searchObs.Counters(), plansObs.Counters(), simObs.Counters()
	served := func(name string) float64 { return float64(win.after[name] - win.before[name]) }
	v := map[string]float64{
		"service.overhead_us":            ratio(overhead, nHTTP) / 1e3,
		"service.compute_us":             meanUS("service.compute"),
		"service.key_us":                 perUnit("service.key") / 1e3,
		"service.cache.hit_ratio":        hitRatio(win.before, win.after, "service.cache"),
		"service.plans.hit_ratio":        hitRatio(win.before, win.after, "service.plans"),
		"service.analyses.hit_ratio":     hitRatio(win.before, win.after, "service.analyses"),
		"cluster.hop_us":                 ratio(hop, nHop) / 1e3,
		"cluster.direct_us":              ratio(direct, nHop) / 1e3,
		"router.keymemo.hit_ratio":       hitRatio(win.before, win.after, "router.keymemo"),
		"router.retries":                 served("router.retries"),
		"router.hedges":                  served("router.hedges"),
		"loopir.parse_us":                meanUS("loopir.parse"),
		"loopir.canonicalize_us":         meanUS("loopir.canonicalize"),
		"core.analyze_us":                meanUS("core.analyze"),
		"analyze.class_us":               stage("analyze.class"),
		"analyze.partition_us":           stage("analyze.partition"),
		"analyze.span_us":                stage("analyze.span"),
		"analyze.compile_us":             stage("analyze.compile"),
		"analyze.components":             float64(analyze.Counters()["analyze.components"]),
		"core.predict_fa_us":             meanUS("core.predict_fa"),
		"core.predict_conflict_us":       meanUS("core.predict_conflict"),
		"evalcache.hit_ratio":            ratio(search["evalcache.hits"]+plans["evalcache.hits"], search["evalcache.lookups"]+plans["evalcache.lookups"]),
		"evalcache.frame_evals":          float64(search["evalcache.frame_evals"] + plans["evalcache.frame_evals"]),
		"expr.eval_ns":                   perUnit("expr.eval"),
		"tilesearch.search_ms":           meanUS("tilesearch.search") / 1e3,
		"tilesearch.candidate_ns":        perUnit("tilesearch.search"),
		"search.evaluated":               float64(get("tilesearch.search").units),
		"search.candidates.coarse":       float64(search["search.candidates.coarse"]),
		"search.candidates.frontier":     float64(search["search.candidates.frontier"]),
		"search.candidates.refine":       float64(search["search.candidates.refine"]),
		"search.pruned":                  float64(search["search.pruned"]),
		"tilesearch.plans_ms":            meanUS("tilesearch.plans") / 1e3,
		"tilesearch.enumerate_us":        meanUS("tilesearch.enumerate"),
		"plansearch.variants":            float64(plans["plansearch.variants"]),
		"plansearch.skipped":             float64(plans["plansearch.skipped"]),
		"trace.compile_us":               meanUS("trace.compile"),
		"trace.gen_ns_per_access":        perUnit("trace.gen"),
		"trace.accesses":                 float64(get("trace.gen").units),
		"cachesim.exact_ns_per_access":   ratio(exactSelf, get("cachesim.exact").units),
		"cachesim.sampled_ns_per_access": ratio(sampledSelf, get("cachesim.sampled").units),
		"cachesim.stack_ops":             float64(sim["cachesim.stack_ops"]),
		"cachesim.compactions":           float64(sim["cachesim.compactions"]),
		"cachesim.sampled.kept":          float64(sim["cachesim.sampled.kept"]),
		"cachesim.analytic_us":           meanUS("cachesim.analytic"),
		"bench.traced_p50_ms":            ms(traced.quantile(0.5)),
		"bench.untraced_p50_ms":          ms(untraced.quantile(0.5)),
		"bench.consistency_violations":   float64(cons.violations),
		"bench.self_over_http":           ratio(serialSum, httpSum),
	}
	if p50 := untraced.quantile(0.5); p50 > 0 {
		v["bench.tracing_overhead"] = float64(traced.quantile(0.5))/float64(p50) - 1
	}
	return v, cons
}

// writeSpans writes every span, one JSON object per line, ordered by
// request and start.
func (t *tracer) writeSpans(path string) error {
	var all []span
	for _, rc := range t.rec {
		all = append(all, rc.spans...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Req != all[j].Req {
			return all[i].Req < all[j].Req
		}
		return all[i].Start < all[j].Start
	})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range all {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
