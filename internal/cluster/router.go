package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// Config sizes the router. The zero value of every field except Replicas
// selects a sensible default.
type Config struct {
	// Replicas are the backend base URLs ("http://host:port"). Required.
	Replicas []string
	// VNodes is the virtual-node count per replica; 0 means DefaultVNodes.
	VNodes int
	// Attempts caps how many distinct replicas one request may try (owner
	// plus hedges/retries); 0 means all replicas.
	Attempts int
	// Hedge is how long to wait on a replica before also asking the key's
	// next ring successor; 0 means 100ms. The first completed answer wins.
	Hedge time.Duration
	// MaxInFlight bounds concurrently proxied requests; 0 means 256. At the
	// bound the router answers 429 immediately, mirroring the replicas'
	// admission taxonomy.
	MaxInFlight int
	// MaxBatchItems caps one /v1/batch request's expanded item count; 0
	// means 256. Must not exceed the replicas' own cap: the router re-sends
	// sub-batches, never splits beyond per-replica grouping.
	MaxBatchItems int
	// RequestTimeout bounds one proxied request end to end, hedges
	// included; 0 means 30s. Expiry answers 504.
	RequestTimeout time.Duration
	// ProbeInterval is the health-poll period; 0 means 500ms.
	ProbeInterval time.Duration
	// Obs receives the router instruments; nil disables instrumentation.
	Obs *obs.Metrics
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.Attempts <= 0 || c.Attempts > len(c.Replicas) {
		c.Attempts = len(c.Replicas)
	}
	if c.Hedge <= 0 {
		c.Hedge = 100 * time.Millisecond
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	return c
}

// Router shards /v1/* requests across analysisd replicas by canonical
// request key. Construct with New, serve its Handler (service.Listen), stop
// via Server.Drain (or Close when unmounted).
type Router struct {
	cfg      Config
	ring     *Ring
	prober   *prober
	keys     *service.KeyMemo
	client   *http.Client
	front    *service.Front
	inflight chan struct{}

	hedges, retries, noReplica *obs.Counter
	inflightGauge              *obs.Gauge
}

// New builds a router over the configured replica set and starts its
// health prober (one synchronous probe round happens before New returns,
// so the first request already routes on real health).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	ring, err := NewRing(cfg.Replicas, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	m := cfg.Obs
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		keys:   service.NewKeyMemo(m, "router.keymemo"),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
		front:  service.NewFront(nil),

		inflight:      make(chan struct{}, cfg.MaxInFlight),
		hedges:        m.Counter("router.hedges"),
		retries:       m.Counter("router.retries"),
		noReplica:     m.Counter("router.noreplica"),
		inflightGauge: m.Gauge("router.inflight"),
	}
	// Both routes run the replicas' request lifecycle, counted together
	// under router.*: /v1/batch is split and fanned out, every other /v1/*
	// request is proxied whole to its key's owner.
	st := service.NewRouteStats(m, "router")
	rt.front.Handle("/v1/batch", st, rt.bounded(rt.serveBatch))
	rt.front.Handle("/v1/", st, rt.bounded(rt.serveProxy))
	rt.front.HandleHealth(func() (any, bool) {
		rd := rt.front.Readiness()
		return RouterHealth{
			Readiness:      rd,
			InFlight:       len(rt.inflight),
			KeyMemoEntries: rt.keys.Len(),
			Replicas:       rt.prober.snapshot(),
		}, rd.Draining
	})
	rt.prober = newProber(ring.Replicas(), cfg.ProbeInterval, m)
	rt.prober.start()
	return rt, nil
}

// Handler returns the router's front door: /v1/batch, every other /v1/*
// endpoint, and /healthz with the bare/enriched contract the replicas
// expose.
func (rt *Router) Handler() *service.Front { return rt.front }

// Close stops the prober. The front door must no longer be receiving
// requests (production goes through Server.Drain, which orders this
// correctly).
func (rt *Router) Close() { rt.prober.close() }

// RouterHealth is the JSON body of the router's /healthz?v=1: the router's
// own readiness plus its view of every replica.
type RouterHealth struct {
	service.Readiness
	InFlight       int                      `json:"inFlight"`
	KeyMemoEntries int                      `json:"keyMemoEntries"`
	Replicas       map[string]ReplicaHealth `json:"replicas"`
}

var (
	errAtCapacity     = service.StatusError(http.StatusTooManyRequests, "router at capacity")
	errNoHealthy      = service.StatusError(http.StatusServiceUnavailable, "no healthy replica")
	errReplicaTimeout = service.StatusError(http.StatusGatewayTimeout, "timed out waiting for replica")
)

// bounded caps the concurrently proxied requests of a route: at
// MaxInFlight the router answers 429 at once, mirroring the replicas'
// admission taxonomy.
func (rt *Router) bounded(serve service.Route) service.Route {
	return func(w http.ResponseWriter, r *http.Request, body []byte) error {
		select {
		case rt.inflight <- struct{}{}:
		default:
			return errAtCapacity
		}
		rt.inflightGauge.Set(int64(len(rt.inflight)))
		defer func() {
			<-rt.inflight
			rt.inflightGauge.Set(int64(len(rt.inflight)))
		}()
		return serve(w, r, body)
	}
}

// replicaError answers a request for which hedgedDo found no replica
// response to relay: 504 once the request's deadline passed, 503 when no
// replica is reachable, otherwise 502.
func (rt *Router) replicaError(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return errReplicaTimeout
	case errors.Is(err, errNoReplica):
		rt.noReplica.Inc()
		return errNoHealthy
	}
	return service.StatusError(http.StatusBadGateway, err.Error())
}

// serveProxy handles every single-spec endpoint: derive the canonical key
// (memoized), pick the owner and its hedge successors, relay the winning
// replica's response verbatim — status, content type and body bytes are the
// replica's own, so a routed response is byte-identical to a direct one,
// and the request is counted by the replica's status.
func (rt *Router) serveProxy(w http.ResponseWriter, r *http.Request, body []byte) error {
	key, err := rt.keys.Key(r.URL.Path, body)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	resp, done, err := rt.hedgedDo(ctx, r.URL.Path, r.URL.RawQuery, body, rt.candidates(key))
	if err != nil {
		return rt.replicaError(err)
	}
	defer done()
	relayResponse(w, resp)
	return service.Relayed(resp.StatusCode)
}

// relayResponse copies a replica response to the client, flushing after
// each read so NDJSON streams pass through incrementally.
func relayResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	copyFlush(w, resp.Body)
}

func copyFlush(w http.ResponseWriter, r io.Reader) {
	f, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if f != nil {
				f.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// candidates returns the replicas to try for a key, in order: the owner
// first, then its ring successors, healthy ones only, capped at Attempts.
// An empty result means no replica is routable right now.
func (rt *Router) candidates(key string) []string {
	succ := rt.ring.Successors(key, len(rt.ring.replicas))
	out := succ[:0]
	for _, rep := range succ {
		if rt.prober.healthy(rep) {
			out = append(out, rep)
		}
	}
	if len(out) > rt.cfg.Attempts {
		out = out[:rt.cfg.Attempts]
	}
	return out
}

// errNoReplica is the every-candidate-transport-failed outcome: whatever
// the last probe believed, no replica is reachable right now, which is the
// same client-facing condition as an empty candidate list — a retryable
// 503, not a 502.
var errNoReplica = errors.New("no healthy replica")

// retryableStatus reports whether a replica's answer should move the
// request along the successor list: 503 is a draining (or restarting)
// replica whose key range has fallen to its successors, 429 is a full
// queue worth spilling past. Both are safe to retry anywhere because every
// replica computes identical bytes for the same canonical key.
func retryableStatus(code int) bool {
	return code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests
}

// attempt is one replica try's outcome.
type attempt struct {
	resp    *http.Response
	replica string
	err     error
	cancel  context.CancelFunc
}

// hedgedDo races the candidate replicas: the first is asked immediately;
// every Hedge interval without an answer (or immediately on a transport
// error or retryable status) the next candidate is asked too. The first
// non-retryable answer wins; losers are canceled. Attempts the hedge timer
// starts carry service.HedgeHeader, so the replica that answers a hedge
// does not also cache the key its owner is computing. If every candidate is
// exhausted the freshest retryable answer is relayed (all draining → 503,
// all overloaded → 429), and only an all-transport-errors outcome surfaces
// as an error. The returned func releases the winning attempt (close body
// first).
func (rt *Router) hedgedDo(ctx context.Context, path, rawQuery string, body []byte, cands []string) (*http.Response, context.CancelFunc, error) {
	if len(cands) == 0 {
		return nil, nil, errNoReplica
	}
	results := make(chan attempt, len(cands))
	launched, pending := 0, 0
	launch := func(hedge bool) {
		rep := cands[launched]
		launched++
		pending++
		actx, cancel := context.WithCancel(ctx)
		go func() {
			url := rep + path
			if rawQuery != "" {
				url += "?" + rawQuery
			}
			req, err := http.NewRequestWithContext(actx, http.MethodPost, url, bytes.NewReader(body))
			if err != nil {
				cancel()
				results <- attempt{replica: rep, err: err}
				return
			}
			req.Header.Set("Content-Type", "application/json")
			if hedge {
				req.Header.Set(service.HedgeHeader, "1")
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				cancel()
				results <- attempt{replica: rep, err: err}
				return
			}
			results <- attempt{replica: rep, resp: resp, cancel: cancel}
		}()
	}
	launch(false)
	timer := time.NewTimer(rt.cfg.Hedge)
	defer timer.Stop()

	var fallback attempt // freshest retryable response, held in reserve
	var lastErr error
	settle := func(a attempt) (*http.Response, context.CancelFunc, error) {
		if pending > 0 {
			go drainAttempts(results, pending)
		}
		if fallback.resp != nil && fallback.resp != a.resp {
			fallback.resp.Body.Close()
			fallback.cancel()
		}
		if a.resp != nil {
			return a.resp, a.cancel, nil
		}
		return nil, nil, a.err
	}
	for {
		select {
		case <-ctx.Done():
			return settle(attempt{err: ctx.Err()})
		case <-timer.C:
			if launched < len(cands) {
				rt.hedges.Inc()
				launch(true)
				timer.Reset(rt.cfg.Hedge)
			}
		case a := <-results:
			pending--
			if a.err != nil {
				if ctx.Err() == nil && !errors.Is(a.err, context.Canceled) {
					rt.prober.markDown(a.replica, a.err)
				}
				lastErr = a.err
			} else if retryableStatus(a.resp.StatusCode) {
				if fallback.resp != nil {
					fallback.resp.Body.Close()
					fallback.cancel()
				}
				fallback = a
			} else {
				return settle(a)
			}
			if launched < len(cands) {
				rt.retries.Inc()
				launch(false)
				timer.Reset(rt.cfg.Hedge)
			} else if pending == 0 {
				if fallback.resp != nil {
					return settle(fallback)
				}
				if lastErr == nil {
					lastErr = fmt.Errorf("no replica answered")
				}
				return settle(attempt{err: fmt.Errorf("%w: %v", errNoReplica, lastErr)})
			}
		}
	}
}

// drainAttempts releases straggler attempts after a winner was chosen; the
// channel is buffered for every launch, so senders never block.
func drainAttempts(results chan attempt, pending int) {
	for i := 0; i < pending; i++ {
		a := <-results
		if a.resp != nil {
			a.resp.Body.Close()
		}
		if a.cancel != nil {
			a.cancel()
		}
	}
}
