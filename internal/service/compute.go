package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/cachesim"
	"repro/internal/cachesim/analytic"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/loopir"
	"repro/internal/tilesearch"
	"repro/internal/trace"
)

// Sentinel errors the HTTP layer maps to status codes. Everything else a
// compute function returns is a client problem (400).
var (
	// ErrOverload is returned when the admission queue is full (429).
	ErrOverload = errors.New("service: overloaded, queue full")
	// errBadRequest wraps malformed-request errors explicitly; bare
	// compute errors are treated the same way.
	errBadRequest = errors.New("bad request")
)

// endpoint is one single-request route of the API.
type endpoint struct {
	name    string // metric name: service.<name>.*
	plan    func(body []byte) (key string, compute computeFn, err error)
	streams bool // ?stream=1 answers NDJSON progress records
}

// predictPath is the route a batch candidate row is equivalent to.
const predictPath = "/v1/predict"

// endpoints is the API's single-request routes, keyed by path: the one
// table the HTTP handlers, Compute, ExpandBatch, CanonicalKeyForRequest
// (the cluster router's shard key) and New's per-endpoint metrics all read.
var endpoints = map[string]endpoint{
	"/v1/analyze":    {name: "analyze", plan: planAnalyze},
	predictPath:      {name: "predict", plan: planPredict},
	"/v1/tilesearch": {name: "tilesearch", plan: planTileSearch, streams: true},
	"/v1/optimize":   {name: "optimize", plan: planOptimize, streams: true},
	"/v1/simulate":   {name: "simulate", plan: planSimulate},
}

// computeFn is a planned request's computation. It takes the service that
// runs it, so planning needs no Service — which is what lets the cluster
// router derive shard keys through the exact code path the service plans
// requests with. progress, when non-nil, receives one NDJSON record per
// completed search step; the response bytes are the same with or without
// it.
type computeFn func(s *Service, ctx context.Context, progress func(record any)) ([]byte, error)

// parseRequest parses a request body for an endpoint path and returns its
// canonical cache key plus the computation that produces its response
// bytes. The HTTP handlers, Compute, the batch expander and the cluster
// router's key derivation all share this single resolution path, which is
// what makes served, directly-computed and cluster-routed bytes identical
// by construction.
func parseRequest(path string, body []byte) (string, computeFn, error) {
	ep, ok := endpoints[path]
	if !ok {
		return "", nil, fmt.Errorf("%w: unknown endpoint %s", errBadRequest, path)
	}
	return ep.plan(body)
}

// Compute resolves and computes a request body directly, bypassing HTTP,
// cache, and admission control — the "direct library call" the load
// generator verifies served bytes against. path selects the endpoint (any
// table route, or /v1/batch) and the returned bytes are exactly what the
// corresponding handler serves on a 200.
func (s *Service) Compute(ctx context.Context, path string, body []byte) ([]byte, error) {
	if path == batchPath {
		return s.computeBatchDirect(ctx, body)
	}
	_, compute, err := parseRequest(path, body)
	if err != nil {
		return nil, err
	}
	return compute(s, ctx, nil)
}

// CanonicalKeyForRequest derives the canonical cache/shard key of a single-
// endpoint request body: the same key the service's own planner computes,
// produced by the same resolution path (decode, canonicalize, key-pack), so
// a router sharding on this key and a replica caching under it can never
// disagree. /v1/batch has no single key — a batch is a set of per-item keys
// (see ExpandBatch) — so it is rejected here.
func CanonicalKeyForRequest(path string, body []byte) (string, error) {
	if path == batchPath {
		return "", fmt.Errorf("%w: /v1/batch has per-item keys; use ExpandBatch", errBadRequest)
	}
	key, _, err := parseRequest(path, body)
	return key, err
}

// decodeInto strictly decodes a request body: unknown fields are errors,
// and so is anything but whitespace after the JSON document.
func decodeInto(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after JSON body", errBadRequest)
	}
	return nil
}

// NestRequest is the problem-selection half of every request body: either
// a named kernel from the experiment suite (kernel/n/tiles, with env
// overlaying the generated bindings) or an inline nest in the textual
// format of loopir.Parse (nest/env). Exactly one of the two forms must be
// used.
type NestRequest struct {
	Kernel string           `json:"kernel,omitempty"`
	N      int64            `json:"n,omitempty"`
	Tiles  []int64          `json:"tiles,omitempty"`
	Nest   string           `json:"nest,omitempty"`
	Env    map[string]int64 `json:"env,omitempty"`
}

// resolve turns a NestRequest into a canonical spec plus the parsed nest.
// Canonicalization is what makes request keys insensitive to array order,
// env order, whitespace, comments and irrelevant bindings. The returned
// nest is what the batch candidates form validates its tile symbols
// against; single-request planning ignores it.
func (nr *NestRequest) resolve() (*loopir.Spec, *loopir.Nest, error) {
	switch {
	case nr.Nest != "" && nr.Kernel != "":
		return nil, nil, fmt.Errorf("%w: request has both nest and kernel; use one", errBadRequest)
	case nr.Nest != "":
		spec := &loopir.Spec{Nest: nr.Nest, Env: nr.Env}
		return spec.Canonicalize()
	case nr.Kernel != "":
		if nr.N <= 0 {
			return nil, nil, fmt.Errorf("%w: kernel request needs n >= 1", errBadRequest)
		}
		nest, env, err := experiments.BuildKernel(nr.Kernel, nr.N, nr.Tiles)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range nr.Env {
			env[k] = v
		}
		return loopir.SpecOf(nest, env), nest, nil
	}
	return nil, nil, fmt.Errorf("%w: request needs a nest or a kernel", errBadRequest)
}

// ModelRequest is the problem and cache half of every model request: a
// nest plus a capacity, given as elements or kilobytes (8-byte elements).
// Ways, when present, switches to the conflict-aware set-associative model
// (line is the line size in elements, defaulting to one); omitted ways
// keeps the fully-associative model and its exact response bytes.
type ModelRequest struct {
	NestRequest
	CacheElems int64  `json:"cacheElems,omitempty"`
	CacheKB    int64  `json:"cacheKB,omitempty"`
	Ways       *int64 `json:"ways,omitempty"`
	Line       *int64 `json:"line,omitempty"`
}

// resolveModel resolves the nest, then the cache config. Omitted ways
// yields the fully-associative config (Ways zero), so the prediction paths,
// cache keys and response bytes stay exactly what they were before the
// fields existed; present ways must name a geometry the set-associative
// simulator itself would accept.
func (mr *ModelRequest) resolveModel() (*loopir.Spec, *loopir.Nest, core.CacheConfig, error) {
	var cfg core.CacheConfig
	spec, nest, err := mr.resolve()
	if err != nil {
		return nil, nil, cfg, err
	}
	switch {
	case mr.CacheElems > 0:
		cfg.CapacityElems = mr.CacheElems
	case mr.CacheKB > 0:
		cfg.CapacityElems = experiments.KB(mr.CacheKB)
	default:
		return nil, nil, cfg, fmt.Errorf("%w: request needs cacheElems or cacheKB", errBadRequest)
	}
	switch {
	case mr.Ways == nil && mr.Line != nil:
		return nil, nil, cfg, fmt.Errorf("%w: line requires ways", errBadRequest)
	case mr.Ways == nil:
		return spec, nest, cfg, nil
	case *mr.Ways <= 0:
		return nil, nil, cfg, fmt.Errorf("%w: ways must be >= 1, got %d", errBadRequest, *mr.Ways)
	case mr.Line != nil && *mr.Line <= 0:
		return nil, nil, cfg, fmt.Errorf("%w: line must be >= 1, got %d", errBadRequest, *mr.Line)
	}
	cfg.Ways = *mr.Ways
	if mr.Line != nil {
		cfg.LineElems = *mr.Line
	}
	if err := cfg.Validate(); err != nil {
		return nil, nil, cfg, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return spec, nest, cfg, nil
}

// CacheEcho is the cache a model response reports: the capacity, and the
// effective set-associative geometry, omitted on the fully-associative
// model.
type CacheEcho struct {
	CacheElems int64 `json:"cacheElems"`
	Ways       int64 `json:"ways,omitempty"`
	Line       int64 `json:"line,omitempty"`
}

func echoOf(cfg core.CacheConfig) CacheEcho {
	e := CacheEcho{CacheElems: cfg.CapacityElems}
	if cfg.Ways > 0 {
		e.Ways, e.Line = cfg.Ways, effectiveLine(cfg)
	}
	return e
}

// effectiveLine is the line size a config actually models (LineElems zero
// means one-element lines): what keys and responses report.
func effectiveLine(cfg core.CacheConfig) int64 {
	if cfg.LineElems <= 0 {
		return 1
	}
	return cfg.LineElems
}

// Key builders: endpoint tag, canonical spec key, then the endpoint's
// extra parameters, NUL-separated. Two requests share a key exactly when
// the canonical computation is identical.

// waysKey is the key suffix of a set-associative geometry. Omitted ways
// must key exactly as before the field existed, so cached
// fully-associative bytes keep being shared across releases; a present
// ways keys on the effective geometry (the response echoes it), so
// {ways:2} and {ways:2,line:1} collide and distinct geometries do not.
func waysKey(cfg core.CacheConfig) string {
	if cfg.Ways <= 0 {
		return ""
	}
	return fmt.Sprintf("\x00ways=%d,line=%d", cfg.Ways, effectiveLine(cfg))
}

func predictKey(spec *loopir.Spec, cfg core.CacheConfig, detail bool) string {
	return "predict\x00" + spec.Key() + predictKeyTail(cfg, detail)
}

// predictKeyTail is the part of a predict key after the spec's: the
// capacity, the geometry and the detail flag.
func predictKeyTail(cfg core.CacheConfig, detail bool) string {
	k := "\x00" + strconv.FormatInt(cfg.CapacityElems, 10) + waysKey(cfg)
	if detail {
		k += "\x00detail"
	}
	return k
}

// encBufPool recycles the buffer+encoder pairs marshal renders responses
// through, so the warm path reuses its encoding machinery instead of
// rebuilding it per response.
var encBufPool = sync.Pool{New: func() any {
	buf := new(bytes.Buffer)
	return &encBuf{buf: buf, enc: json.NewEncoder(buf)}
}}

type encBuf struct {
	buf *bytes.Buffer
	enc *json.Encoder
}

// marshal renders every response: compact deterministic JSON with a
// trailing newline, so cached bytes, direct Compute calls, batch item
// records and golden files compare byte-for-byte. Compact is the stored
// and served form (it is also what NDJSON framing requires of embedded
// records); human-readable output is an HTTP-layer presentation behind
// ?pretty=1. The returned slice is freshly owned — the cache retains it —
// while the encoding scratch is pooled.
func marshal(v any) ([]byte, error) {
	eb := encBufPool.Get().(*encBuf)
	eb.buf.Reset()
	if err := eb.enc.Encode(v); err != nil {
		encBufPool.Put(eb)
		return nil, err
	}
	data := append([]byte(nil), eb.buf.Bytes()...)
	encBufPool.Put(eb)
	return data, nil
}

// AnalyzeRequest selects a nest; bindings are accepted but irrelevant (the
// component inventory is symbolic), so they do not enter the cache key.
type AnalyzeRequest struct {
	NestRequest
}

// AnalyzeResponse is the symbolic component inventory of a nest.
type AnalyzeResponse struct {
	Nest       string               `json:"nest"`    // nest name
	Source     string               `json:"source"`  // canonical nest text
	Symbols    []string             `json:"symbols"` // sorted symbol names
	Components []core.ComponentJSON `json:"components"`
}

func planAnalyze(body []byte) (string, computeFn, error) {
	var req AnalyzeRequest
	if err := decodeInto(body, &req); err != nil {
		return "", nil, err
	}
	spec, _, err := req.resolve()
	if err != nil {
		return "", nil, err
	}
	return "analyze\x00" + spec.Nest, func(s *Service, ctx context.Context, _ func(any)) ([]byte, error) {
		a, err := s.getAnalysis(ctx, spec.Nest)
		if err != nil {
			return nil, err
		}
		return marshal(AnalyzeResponse{
			Nest:       a.Nest.Name,
			Source:     spec.Nest,
			Symbols:    a.Nest.SymbolNames(),
			Components: a.ComponentsJSON(),
		})
	}, nil
}

// PredictRequest evaluates the model at concrete bindings; detail adds the
// per-site miss breakdown.
type PredictRequest struct {
	ModelRequest
	Detail bool `json:"detail,omitempty"`
}

// PredictResponse is a concrete miss prediction.
type PredictResponse struct {
	Nest string           `json:"nest"`
	Env  map[string]int64 `json:"env"`
	CacheEcho
	Accesses int64            `json:"accesses"`
	Misses   int64            `json:"misses"`
	BySite   map[string]int64 `json:"bySite,omitempty"`
}

func planPredict(body []byte) (string, computeFn, error) {
	var req PredictRequest
	if err := decodeInto(body, &req); err != nil {
		return "", nil, err
	}
	spec, _, cfg, err := req.resolveModel()
	if err != nil {
		return "", nil, err
	}
	return predictKey(spec, cfg, req.Detail), func(s *Service, ctx context.Context, _ func(any)) ([]byte, error) {
		return s.computePredict(ctx, spec, cfg, req.Detail)
	}, nil
}

// computePredict is the /v1/predict computation: the model's prediction
// query on a pooled frame. A requested set-associative geometry is
// classified by the conflict-aware model and echoed in the response.
func (s *Service) computePredict(ctx context.Context, spec *loopir.Spec, cfg core.CacheConfig, detail bool) ([]byte, error) {
	a, err := s.getAnalysis(ctx, spec.Nest)
	if err != nil {
		return nil, err
	}
	f := a.GetFrame()
	defer a.PutFrame(f)
	f.Bind(spec.ExprEnv())
	rep, err := a.PredictMissesFrameConfig(f, cfg)
	if err != nil {
		return nil, err
	}
	resp := PredictResponse{
		Nest:      a.Nest.Name,
		Env:       spec.Env,
		CacheEcho: echoOf(cfg),
		Accesses:  rep.Accesses,
		Misses:    rep.Total,
	}
	if detail {
		resp.BySite = rep.BySite
	}
	return marshal(resp)
}

// TileSearchRequest runs the §6 search. Dims maps each tile symbol to its
// largest candidate size; the base environment must bind the loop bounds.
type TileSearchRequest struct {
	ModelRequest
	Dims      map[string]int64 `json:"dims"`
	MinTile   int64            `json:"minTile,omitempty"`
	DivisorOf int64            `json:"divisorOf,omitempty"`
}

// searchKey is the key of a search request under tag: the capacity, the
// tile-search knobs and dims, extra, then the set-associative geometry.
func (req *TileSearchRequest) searchKey(tag string, spec *loopir.Spec, cfg core.CacheConfig, extra string) string {
	var b strings.Builder
	b.WriteString(tag)
	b.WriteString(spec.Key())
	fmt.Fprintf(&b, "\x00%d\x00%d\x00%d\x00", cfg.CapacityElems, req.MinTile, req.DivisorOf)
	for i, d := range tilesearch.SortedDims(req.Dims) {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%d", d.Symbol, d.Max)
	}
	b.WriteString(extra)
	b.WriteString(waysKey(cfg))
	return b.String()
}

// options is the search configuration of a resolved request. The search
// runs sequentially (Parallelism 1): concurrency in the serving layer comes
// from the worker pool, and nesting a second level of parallelism inside a
// pool slot would oversubscribe the host.
func (req *TileSearchRequest) options(ctx context.Context, spec *loopir.Spec, cfg core.CacheConfig) tilesearch.Options {
	return tilesearch.Options{
		Dims:       tilesearch.SortedDims(req.Dims),
		CacheElems: cfg.CapacityElems,
		Ways:       cfg.Ways,
		LineElems:  cfg.LineElems,
		BaseEnv:    spec.ExprEnv(),
		MinTile:    req.MinTile,
		DivisorOf:  req.DivisorOf,
		Context:    ctx,
	}
}

// TileSearchResponse is the search outcome plus its phase counts.
type TileSearchResponse struct {
	Nest string `json:"nest"`
	CacheEcho
	Result *tilesearch.Result `json:"result"`
	Phases tilesearch.Phases  `json:"phases"`
}

// planTileSearch plans a /v1/tilesearch body. Under ?stream=1 the
// computation reports each completed search phase as its
// tilesearch.ProgressEvent; the records are deterministic for a given
// request (phases are barriers and the search is sequential inside its pool
// slot), so stream output is golden-testable like every other response.
func planTileSearch(body []byte) (string, computeFn, error) {
	var req TileSearchRequest
	if err := decodeInto(body, &req); err != nil {
		return "", nil, err
	}
	spec, _, cfg, err := req.resolveModel()
	if err != nil {
		return "", nil, err
	}
	return req.searchKey("tilesearch\x00", spec, cfg, ""), func(s *Service, ctx context.Context, progress func(any)) ([]byte, error) {
		if len(req.Dims) == 0 {
			return nil, fmt.Errorf("%w: tilesearch request needs dims", errBadRequest)
		}
		a, err := s.getAnalysis(ctx, spec.Nest)
		if err != nil {
			return nil, err
		}
		opts := req.options(ctx, spec, cfg)
		if progress != nil {
			opts.Progress = func(ev tilesearch.ProgressEvent) { progress(ev) }
		}
		res, err := tilesearch.Search(a, opts)
		if err != nil {
			return nil, err
		}
		return marshal(TileSearchResponse{
			Nest:      a.Nest.Name,
			CacheEcho: echoOf(cfg),
			Result:    res,
			Phases:    res.Phases,
		})
	}, nil
}

// SimulateRequest runs a stack-distance simulation engine over the nest's
// reference trace. Watches are cache capacities in elements (or watchKB in
// kilobytes); perSite adds the per-reference-site breakdown. Engine selects
// "exact" (default — full StackSim trace walk), "analytic" (closed-form
// model evaluation, no trace) or "sampled" (SHARDS-style address-sampled
// estimate with a reported confidence envelope).
type SimulateRequest struct {
	NestRequest
	Watches []int64 `json:"watches,omitempty"`
	WatchKB []int64 `json:"watchKB,omitempty"`
	PerSite bool    `json:"perSite,omitempty"`
	Engine  string  `json:"engine,omitempty"`
}

// SamplingJSON reports the sampled engine's telemetry and error envelope.
type SamplingJSON struct {
	Log2Rate        int     `json:"log2Rate"` // sampling rate is 2^-log2Rate
	Rate            float64 `json:"rate"`
	Seed            uint64  `json:"seed"`
	SampledAccesses int64   `json:"sampledAccesses"`
	SampledDistinct int64   `json:"sampledDistinct"`
	Confidence      float64 `json:"confidence"` // 1-δ of the bound below
	MissBound       int64   `json:"missBound"`  // half-width around each miss estimate
}

// SimulateResponse is the simulation outcome. ModelExact is present only
// for the analytic engine (whether every closed-form component is exact);
// Sampling only for the sampled engine.
type SimulateResponse struct {
	Nest       string               `json:"nest"`
	Env        map[string]int64     `json:"env"`
	Engine     string               `json:"engine"`
	Length     int64                `json:"length"` // trace length in accesses
	Results    cachesim.ResultsJSON `json:"results"`
	ModelExact *bool                `json:"modelExact,omitempty"`
	Sampling   *SamplingJSON        `json:"sampling,omitempty"`
}

func planSimulate(body []byte) (string, computeFn, error) {
	var req SimulateRequest
	if err := decodeInto(body, &req); err != nil {
		return "", nil, err
	}
	spec, _, err := req.resolve()
	if err != nil {
		return "", nil, err
	}
	watches, err := normWatches(req.Watches, req.WatchKB)
	if err != nil {
		return "", nil, err
	}
	eng, err := cachesim.ParseEngine(req.Engine)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return simulateKey(spec, watches, req.PerSite, eng), func(s *Service, ctx context.Context, _ func(any)) ([]byte, error) {
		return s.computeSimulate(ctx, spec, watches, req.PerSite, eng)
	}, nil
}

func simulateKey(spec *loopir.Spec, watches []int64, perSite bool, eng cachesim.Engine) string {
	var b strings.Builder
	b.WriteString("simulate\x00")
	b.WriteString(spec.Key())
	b.WriteByte(0)
	for i, w := range watches {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatInt(w, 10))
	}
	if perSite {
		b.WriteString("\x00persite")
	}
	// An omitted engine and an explicit "exact" are the same computation
	// and must share a key (and therefore cached bytes).
	if eng != cachesim.EngineExact {
		b.WriteString("\x00engine=")
		b.WriteString(string(eng))
	}
	return b.String()
}

// normWatches sorts, dedupes and validates the watch list so equivalent
// requests key and respond identically.
func normWatches(watches, watchKB []int64) ([]int64, error) {
	out := append([]int64(nil), watches...)
	for _, kb := range watchKB {
		out = append(out, experiments.KB(kb))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: simulate request needs watches or watchKB", errBadRequest)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	uniq := out[:1]
	for _, w := range out[1:] {
		if w != uniq[len(uniq)-1] {
			uniq = append(uniq, w)
		}
	}
	for _, w := range uniq {
		if w <= 0 {
			return nil, fmt.Errorf("%w: watch capacities must be positive, got %d", errBadRequest, w)
		}
	}
	return uniq, nil
}

// computeSimulate is the /v1/simulate computation, dispatched on the
// engine: exact and sampled compile the trace and stream it through their
// simulator (against the engine's own trace-length budget); analytic
// evaluates the cached compiled model on a pooled frame — no trace, so no
// length gate, and the same request that 400s under engine=exact at
// n=2048 answers in microseconds of compute.
func (s *Service) computeSimulate(ctx context.Context, spec *loopir.Spec, watches []int64, perSite bool, eng cachesim.Engine) ([]byte, error) {
	s.engines[eng].Inc()
	if eng == cachesim.EngineAnalytic {
		return s.computeSimulateAnalytic(ctx, spec, watches, perSite)
	}
	nest, err := loopir.Parse(spec.Nest)
	if err != nil {
		return nil, err
	}
	p, err := trace.Compile(nest, spec.ExprEnv())
	if err != nil {
		return nil, err
	}
	length, err := p.Length()
	if err != nil {
		return nil, err
	}
	limit := s.cfg.MaxTraceLen
	if eng == cachesim.EngineSampled {
		limit *= sampledTraceFactor
	}
	if length > limit {
		return nil, fmt.Errorf("%w: trace length %d exceeds limit %d for engine %s", errBadRequest, length, limit, eng)
	}
	// Every simulator allocates per address (the sampled engine's inner
	// stack simulator spans the whole address space), so a short trace over
	// huge declared arrays is as costly as a long one.
	if p.Size > s.cfg.MaxTraceLen {
		return nil, fmt.Errorf("%w: address space of %d elements exceeds limit %d", errBadRequest, p.Size, s.cfg.MaxTraceLen)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var labels []string
	if perSite {
		labels = make([]string, len(p.Sites))
		for i, site := range p.Sites {
			labels[i] = site.Key()
		}
	}
	resp := SimulateResponse{
		Nest:   nest.Name,
		Env:    spec.Env,
		Engine: string(eng),
		Length: length,
	}
	if eng == cachesim.EngineSampled {
		// Fixed seed and an address-space-derived rate: the estimate is a
		// pure function of the request, so responses stay cacheable and
		// byte-deterministic like every other endpoint's.
		sim := cachesim.NewSampledSim(p.Size, len(p.Sites), watches, cachesim.DefaultLog2Rate(p.Size), 0)
		p.RunBlocks(trace.DefaultBlockSize, sim.AccessBlock)
		resp.Results = sim.Results().JSON(labels)
		st := sim.Stats()
		resp.Sampling = &SamplingJSON{
			Log2Rate:        st.Log2Rate,
			Rate:            st.Rate,
			Seed:            st.Seed,
			SampledAccesses: st.SampledAccesses,
			SampledDistinct: st.SampledDistinct,
			Confidence:      0.95,
			MissBound:       sim.MissBound(0.05),
		}
	} else {
		sim := cachesim.NewStackSim(p.Size, len(p.Sites), watches)
		p.RunBlocks(trace.DefaultBlockSize, sim.AccessBlock)
		resp.Results = sim.Results().JSON(labels)
	}
	return marshal(resp)
}

// computeSimulateAnalytic is the engine=analytic path: the analysis is
// cached across requests (getAnalysis), so the steady state is a compiled-
// program evaluation per watched capacity on a pooled frame.
func (s *Service) computeSimulateAnalytic(ctx context.Context, spec *loopir.Spec, watches []int64, perSite bool) ([]byte, error) {
	a, err := s.getAnalysis(ctx, spec.Nest)
	if err != nil {
		return nil, err
	}
	f := a.GetFrame()
	defer a.PutFrame(f)
	f.Bind(spec.ExprEnv())
	res, info, err := analytic.SimulateFrame(a, f, watches)
	if err != nil {
		return nil, err
	}
	var labels []string
	if perSite {
		labels = analytic.SiteLabels(a.Nest)
	}
	return marshal(SimulateResponse{
		Nest:   a.Nest.Name,
		Env:    spec.Env,
		Engine: string(cachesim.EngineAnalytic),
		// The model counts the same accesses the trace would emit; the
		// cross-engine harness pins the equality.
		Length:     res.Accesses,
		Results:    res.JSON(labels),
		ModelExact: &info.Exact,
	})
}
