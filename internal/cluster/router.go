package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
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
	// ProbeTimeout bounds one health probe; 0 means 2s.
	ProbeTimeout time.Duration
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
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	return c
}

// Router shards /v1/* requests across analysisd replicas by canonical
// request key. Construct with New, mount via Handler (or serve via Serve),
// stop via Server.Drain (or Close when unmounted).
type Router struct {
	cfg      Config
	ring     *Ring
	prober   *prober
	keys     *service.KeyMemo
	client   *http.Client
	inflight chan struct{}
	draining atomic.Bool
	started  time.Time

	total, ok, errs, rejected  *obs.Counter
	hedges, retries, noReplica *obs.Counter
	inflightGauge              *obs.Gauge
	latency                    *obs.Timer
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

		inflight:      make(chan struct{}, cfg.MaxInFlight),
		started:       time.Now(),
		total:         m.Counter("router.requests"),
		ok:            m.Counter("router.ok"),
		errs:          m.Counter("router.errors"),
		rejected:      m.Counter("router.rejected"),
		hedges:        m.Counter("router.hedges"),
		retries:       m.Counter("router.retries"),
		noReplica:     m.Counter("router.noreplica"),
		inflightGauge: m.Gauge("router.inflight"),
		latency:       m.Timer("router.latency"),
	}
	rt.prober = newProber(ring.Replicas(), cfg.ProbeInterval, cfg.ProbeTimeout, m)
	rt.prober.start()
	return rt, nil
}

// Close stops the prober. Handler must no longer be receiving requests
// (production goes through Server.Drain, which orders this correctly).
func (rt *Router) Close() { rt.prober.close() }

// RouterHealth is the JSON body of the router's /healthz?v=1: the router's
// own readiness plus its view of every replica.
type RouterHealth struct {
	Status         string                   `json:"status"` // "ok" or "draining"
	Draining       bool                     `json:"draining"`
	UptimeSec      float64                  `json:"uptimeSec"`
	InFlight       int                      `json:"inFlight"`
	KeyMemoEntries int                      `json:"keyMemoEntries"`
	Replicas       map[string]ReplicaHealth `json:"replicas"`
}

// Health reports the router's current health snapshot.
func (rt *Router) Health() RouterHealth {
	h := RouterHealth{
		Status:         "ok",
		Draining:       rt.draining.Load(),
		UptimeSec:      time.Since(rt.started).Seconds(),
		InFlight:       len(rt.inflight),
		KeyMemoEntries: rt.keys.Len(),
		Replicas:       rt.prober.snapshot(),
	}
	if h.Draining {
		h.Status = "draining"
	}
	return h
}

// Handler returns the router's HTTP mux: /v1/batch (split and fanned out),
// every other /v1/* endpoint (proxied whole to the key's owner), and
// /healthz with the same bare/enriched contract the replicas expose.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", rt.serveHealth)
	mux.HandleFunc("/v1/batch", rt.serveBatch)
	mux.HandleFunc("/v1/", rt.serveProxy)
	return mux
}

func (rt *Router) serveHealth(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("v") == "1" {
		h := rt.Health()
		code := http.StatusOK
		if h.Draining {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, h)
		return
	}
	if rt.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// admit runs the shared request prologue: counting, method check, drain
// check, bounded admission, body read. It returns the body and a release
// func, or ok=false after having written the response. finish must be
// called with the final status exactly once when ok.
func (rt *Router) admit(w http.ResponseWriter, r *http.Request) (body []byte, release func(), ok bool) {
	rt.total.Inc()
	if r.Method != http.MethodPost {
		rt.errs.Inc()
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return nil, nil, false
	}
	if rt.draining.Load() {
		rt.rejected.Inc()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
		return nil, nil, false
	}
	select {
	case rt.inflight <- struct{}{}:
	default:
		rt.rejected.Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "router at capacity"})
		return nil, nil, false
	}
	rt.inflightGauge.Set(int64(len(rt.inflight)))
	release = func() {
		<-rt.inflight
		rt.inflightGauge.Set(int64(len(rt.inflight)))
	}
	// The replicas' own body read: an oversized body is rejected here with
	// the bytes a replica would answer.
	body, err := service.ReadBody(r.Body)
	if err != nil {
		release()
		rt.errs.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return nil, nil, false
	}
	return body, release, true
}

// finish settles the requests == ok + errors + rejected invariant for a
// proxied response: 200 is ok, the admission statuses (429/503) count as
// rejected wherever they were produced, everything else is an error.
func (rt *Router) finish(status int) {
	switch {
	case status == http.StatusOK:
		rt.ok.Inc()
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		rt.rejected.Inc()
	default:
		rt.errs.Inc()
	}
}

// serveProxy handles every single-spec endpoint: derive the canonical key
// (memoized), pick the owner and its hedge successors, relay the winning
// replica's response verbatim — status, content type and body bytes are the
// replica's own, so a routed response is byte-identical to a direct one.
func (rt *Router) serveProxy(w http.ResponseWriter, r *http.Request) {
	sw := rt.latency.Start()
	defer sw.Stop()
	body, release, ok := rt.admit(w, r)
	if !ok {
		return
	}
	defer release()

	key, err := rt.keys.Key(r.URL.Path, body)
	if err != nil {
		rt.errs.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	cands := rt.candidates(key)
	if len(cands) == 0 {
		rt.noReplica.Inc()
		rt.rejected.Inc()
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no healthy replica"})
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	resp, done, err := rt.hedgedDo(ctx, r.URL.Path, r.URL.RawQuery, body, cands)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			rt.errs.Inc()
			writeJSON(w, http.StatusGatewayTimeout, errorBody{Error: "timed out waiting for replica"})
		case errors.Is(err, errNoReplica):
			rt.noReplica.Inc()
			rt.rejected.Inc()
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "no healthy replica"})
		default:
			rt.errs.Inc()
			writeJSON(w, http.StatusBadGateway, errorBody{Error: err.Error()})
		}
		return
	}
	defer done()
	rt.finish(resp.StatusCode)
	relayResponse(w, resp)
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

// errorBody mirrors the replicas' JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	data = append(data, '\n')
	w.Write(data)
}

// Server is a Router bound to a listener, with the same drain contract the
// replica server has: flip draining, stop accepting, finish in-flight.
type Server struct {
	Router *Router
	http   *http.Server
	addr   string
	done   chan error
}

// Serve binds addr (":0" picks a free port) and serves the router in a
// background goroutine. Stop with Drain.
func Serve(addr string, rt *Router) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	sv := &Server{
		Router: rt,
		http:   &http.Server{Handler: rt.Handler()},
		addr:   ln.Addr().String(),
		done:   make(chan error, 1),
	}
	go func() {
		err := sv.http.Serve(ln)
		if err == http.ErrServerClosed {
			err = nil
		}
		sv.done <- err
	}()
	return sv, nil
}

// Addr returns the bound listen address.
func (sv *Server) Addr() string { return sv.addr }

// Drain gracefully stops the router: new requests are answered 503 and
// /healthz fails, the listener closes, in-flight proxied requests run to
// completion (each finishes against its replica), then the prober stops.
// The backends are not touched — a router drain is invisible to them.
func (sv *Server) Drain(ctx context.Context) error {
	sv.Router.draining.Store(true)
	err := sv.http.Shutdown(ctx)
	if err != nil {
		sv.http.Close()
	}
	sv.Router.Close()
	if serveErr := <-sv.done; serveErr != nil && err == nil {
		err = serveErr
	}
	if err != nil {
		return fmt.Errorf("cluster: drain: %w", err)
	}
	return nil
}
