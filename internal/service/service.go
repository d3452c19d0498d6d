// Package service is the serving layer of the pipeline: an HTTP JSON API
// exposing the cache model (/v1/analyze, /v1/predict), the §6 tile-size
// search (/v1/tilesearch), the joint plan search (/v1/optimize) and the
// stack-distance simulator (/v1/simulate) as a concurrent network service.
// Those routes are the rows of one endpoint table (endpoints); /v1/batch
// carries many of them in one request.
//
// The design centers on three mechanisms:
//
//   - Canonical request keys. Every request resolves to a canonical
//     loopir.Spec (nest source re-rendered by Unparse, environment
//     restricted to the nest's symbols), so syntactically different but
//     equivalent requests — reordered arrays, shuffled env keys, comments,
//     junk bindings — share one cache key.
//
//   - A bounded LRU response cache with singleflight coalescing. The first
//     request for a key becomes the leader and computes; concurrent
//     identical requests wait on the same entry and receive byte-identical
//     bytes. Completed responses are served straight from the cache until
//     evicted. Errors are never cached.
//
//   - Admission control. Leaders run their computation on a fixed worker
//     pool behind a bounded queue; when the queue is full the request is
//     answered 429 immediately. During drain (Server.Drain) new requests
//     are answered 503 while in-flight ones run to completion, so a
//     SIGTERM loses no accepted work.
//
// Every route runs the request lifecycle of the front door (Front, shared
// with the cluster router), which maintains the metric invariant
//
//	service.<ep>.requests == .ok + .errors + .rejected
//
// that the lifecycle test, the fuzz target and the drain storm (under the
// race detector) assert. Cache counters follow the determinism stance of
// flightCache: misses and hits are deterministic for a fixed request script
// (capacity permitting); coalesced is the timing-dependent subset of hits.
package service

import (
	"context"
	"runtime"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/loopir"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config sizes the service. The zero value of every field selects a
// sensible default.
type Config struct {
	// Workers is the number of compute workers; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; 0 means 64. A full queue
	// answers 429.
	QueueDepth int
	// CacheEntries bounds the response LRU; 0 means 256.
	CacheEntries int
	// AnalysisEntries bounds the analysis LRU (canonical nest → analyzed
	// model); 0 means 64.
	AnalysisEntries int
	// RequestTimeout bounds both a computation and a handler's wait for a
	// coalesced result; 0 means 30s. An expired wait answers 504.
	RequestTimeout time.Duration
	// MaxTraceLen rejects /v1/simulate requests whose reference trace
	// exceeds this many accesses; 0 means trace.DefaultBudget (1<<28). It
	// gates the exact engine only: the sampled engine walks the trace
	// without simulator state per access and gets the larger
	// MaxSampledTraceLen budget, and the analytic engine never generates a
	// trace at all.
	MaxTraceLen int64
	// MaxSampledTraceLen is MaxTraceLen's counterpart for engine=sampled;
	// 0 means 32 × MaxTraceLen.
	MaxSampledTraceLen int64
	// MaxBatchItems caps the item count of one /v1/batch request; 0 means
	// 256. A batch above the cap is rejected whole with 429 — the same
	// answer an atomically-unschedulable batch gets — so clients have one
	// retry story for "too much at once".
	MaxBatchItems int
	// Obs receives the service instruments (see README's Observability
	// section); nil disables instrumentation.
	Obs *obs.Metrics
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.AnalysisEntries <= 0 {
		c.AnalysisEntries = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxTraceLen <= 0 {
		c.MaxTraceLen = trace.DefaultBudget
	}
	if c.MaxSampledTraceLen <= 0 {
		c.MaxSampledTraceLen = 32 * c.MaxTraceLen
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	return c
}

// Service implements the analysis API. Construct with New, mount via
// Handler (or serve via Serve), stop via Server.Drain.
type Service struct {
	cfg      Config
	m        *obs.Metrics
	pool     *workPool
	resp     *flightCache[[]byte]
	analyses *flightCache[*core.Analysis]
	plans    *memoLRU[*planned]
	// batchPlans memoizes whole /v1/batch bodies → decoded, per-item-planned
	// batch plans, so a repeated batch costs one map probe instead of a
	// decode plus N plannings.
	batchPlans *memoLRU[*batchPlan]
	front      *Front

	// batchItems count per-item outcomes inside /v1/batch requests
	// ("service.batch.items{,.ok,.errors}"); the request-level invariant
	// stays on the batch route's RouteStats.
	batchItems, batchItemsOK, batchItemsErr *obs.Counter
	// streamFlush times each NDJSON record flush ("service.stream.flush").
	streamFlush *obs.Timer
	// engines counts /v1/simulate computations per engine
	// ("service.simulate.engine.<e>"): computations, not requests — cache
	// hits and coalesced waiters reuse the leader's computation.
	engines map[cachesim.Engine]*obs.Counter
}

// New creates a service. The worker pool starts immediately; a service
// that is never drained leaks its workers, so pair New with Server.Drain
// (or Close in tests).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	m := cfg.Obs
	s := &Service{
		cfg:           cfg,
		m:             m,
		resp:          newFlightCache[[]byte](cfg.CacheEntries, m, "service.cache"),
		analyses:      newFlightCache[*core.Analysis](cfg.AnalysisEntries, m, "service.analyses"),
		plans:         newMemoLRU[*planned](planCacheCap, m, "service.plans"),
		batchPlans:    newMemoLRU[*batchPlan](batchPlanCacheCap, m, "service.batchplans"),
		front:         NewFront(m.Counter("service.requests")),
		batchItems:    m.Counter("service.batch.items"),
		batchItemsOK:  m.Counter("service.batch.items.ok"),
		batchItemsErr: m.Counter("service.batch.items.errors"),
		streamFlush:   m.Timer("service.stream.flush"),
	}
	s.pool = newWorkPool(cfg.Workers, cfg.QueueDepth, m.Gauge("service.queue.depth"))
	for path, ep := range endpoints {
		s.front.Handle(path, NewRouteStats(m, "service."+ep.name), s.serveEndpoint(path, ep))
	}
	s.front.Handle(batchPath, NewRouteStats(m, "service.batch"), s.serveBatch)
	s.front.HandleHealth(func() (any, bool) {
		h := s.Health()
		return h, h.Draining
	})
	s.engines = map[cachesim.Engine]*obs.Counter{}
	for _, eng := range cachesim.Engines() {
		s.engines[eng] = m.Counter("service.simulate.engine." + string(eng))
	}
	return s
}

// Close stops the worker pool after draining accepted tasks. Handler must
// no longer be receiving requests (tests use httptest.Server.Close first;
// production goes through Server.Drain, which orders this correctly).
func (s *Service) Close() {
	s.front.SetDraining(true)
	s.pool.close()
}

// HealthStatus is the JSON body of /healthz?v=1: the readiness signal
// (status, draining flag, uptime) enriched with the load facts a cluster
// router's prober wants — queue depth (accepted but unstarted work) and
// response-cache population. The bare /healthz answer (200/503 with the
// original one-field bodies) is unchanged; the enrichment is opt-in so
// existing probes and goldens keep their bytes.
type HealthStatus struct {
	Readiness
	QueueDepth         int64 `json:"queueDepth"`
	FlightCacheEntries int64 `json:"flightCacheEntries"`
}

// Health reports the service's current health snapshot.
func (s *Service) Health() HealthStatus {
	return HealthStatus{
		Readiness:          s.front.Readiness(),
		QueueDepth:         s.pool.depth.Load(),
		FlightCacheEntries: int64(s.resp.len()),
	}
}

// getAnalysis returns the analyzed model for a canonical nest source,
// computing and caching it on first use. Analyses are immutable after
// construction and safe for concurrent use; per-request mutable state
// lives in pooled frames (core.Analysis.GetFrame).
func (s *Service) getAnalysis(ctx context.Context, canonicalNest string) (*core.Analysis, error) {
	e, leader := s.analyses.acquire(canonicalNest)
	if leader {
		var a *core.Analysis
		nest, err := loopir.Parse(canonicalNest)
		if err == nil {
			a, err = core.Analyze(nest)
		}
		s.analyses.complete(e, a, err)
	}
	select {
	case <-e.done:
		return e.val, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
