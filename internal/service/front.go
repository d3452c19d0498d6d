package service

import (
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
)

// MaxBodyBytes bounds request bodies; nest sources are small.
const MaxBodyBytes = 1 << 20

// readBody reads a request body of at most MaxBodyBytes. A longer body is
// an error that names the limit, never a silently truncated read.
func readBody(r io.Reader) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(r, MaxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > MaxBodyBytes {
		return nil, fmt.Errorf("%w: request body exceeds %d bytes", errBadRequest, MaxBodyBytes)
	}
	return body, nil
}

// errorBody is the JSON error envelope every non-200 carries.
type errorBody struct {
	Error string `json:"error"`
}

// httpError is a lifecycle answer with its own status; its message is the
// response's error text.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// StatusError returns a route error that the lifecycle answers with code
// and msg as the error text.
func StatusError(code int, msg string) error { return &httpError{code, msg} }

// Relayed is a route's error for a response it has already written with
// this status, as the router relays a replica's answer: the lifecycle
// counts the request by the status and writes nothing.
type Relayed int

func (c Relayed) Error() string { return fmt.Sprintf("relayed status %d", int(c)) }

var (
	errPostOnly = &httpError{http.StatusMethodNotAllowed, "POST only"}
	errDraining = &httpError{http.StatusServiceUnavailable, "draining"}
	// errStreamFailed is a stream that committed its 200 and then failed
	// (an error trailer, or a client that stopped reading): the request
	// counts as an error, with nothing left to write.
	errStreamFailed = errors.New("stream failed")
)

// statusOf maps an error to its status in the endpoint taxonomy: 429
// overload, 504 deadline, a lifecycle error's own status, otherwise 400.
// Batch items and stream trailers carry the same statuses per item.
func statusOf(err error) int {
	if he, ok := err.(*httpError); ok {
		return he.code
	}
	switch {
	case errors.Is(err, ErrOverload):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	}
	return http.StatusBadRequest
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

// Front is the HTTP front door of both serving tiers: an analysisd replica
// (Service) and the cluster router each mount their routes on one. It owns
// what the tiers share at the HTTP boundary — the request lifecycle
// (Handle), the bare and enriched /healthz (HandleHealth) and the draining
// flag that Server.Drain flips — so each is written once for both.
type Front struct {
	mux      *http.ServeMux
	total    *obs.Counter
	draining atomic.Bool
	started  time.Time
}

// NewFront returns a front door with no routes. total, if not nil, counts
// every request on every route ("service.requests"); each route brings its
// own instruments to Handle.
func NewFront(total *obs.Counter) *Front {
	return &Front{mux: http.NewServeMux(), total: total, started: time.Now()}
}

// ServeHTTP dispatches to the mounted routes.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// SetDraining sets the draining flag: while it is set every route answers
// 503 and /healthz fails.
func (f *Front) SetDraining(on bool) { f.draining.Store(on) }

// RouteStats are a route's request instruments: prefix.requests, .ok,
// .errors, .rejected and the .latency timer. Routes may share one set, as
// the router counts both of its routes under "router".
type RouteStats struct {
	requests, ok, errors, rejected *obs.Counter
	latency                        *obs.Timer
}

// NewRouteStats resolves a route's instruments in m (nil m counts nothing).
func NewRouteStats(m *obs.Metrics, prefix string) *RouteStats {
	return &RouteStats{
		requests: m.Counter(prefix + ".requests"),
		ok:       m.Counter(prefix + ".ok"),
		errors:   m.Counter(prefix + ".errors"),
		rejected: m.Counter(prefix + ".rejected"),
		latency:  m.Timer(prefix + ".latency"),
	}
}

// count settles a request on exactly one counter by its status: 200 is ok,
// 429 and 503 are rejections, every other status is an error.
func (st *RouteStats) count(code int) {
	switch code {
	case http.StatusOK:
		st.ok.Inc()
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		st.rejected.Inc()
	default:
		st.errors.Inc()
	}
}

// Route serves one admitted request with its body: it writes a 200 and
// returns nil, or returns the error the lifecycle answers.
type Route func(w http.ResponseWriter, r *http.Request, body []byte) error

// Handle mounts serve at pattern behind the request lifecycle every /v1
// route of both tiers runs: latency and counters, the POST and draining
// checks, the bounded body read, then serve, whose error is answered
// through statusOf in the JSON error envelope (429 with Retry-After).
// Exactly one of ok/errors/rejected is counted per request, so requests ==
// ok + errors + rejected holds whenever the counters are quiescent.
func (f *Front) Handle(pattern string, st *RouteStats, serve Route) {
	f.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := st.latency.Start()
		defer sw.Stop()
		f.total.Inc()
		st.requests.Inc()
		var err error
		switch {
		case r.Method != http.MethodPost:
			err = errPostOnly
		case f.draining.Load():
			err = errDraining
		default:
			var body []byte
			if body, err = readBody(r.Body); err == nil {
				err = serve(w, r, body)
			}
		}
		if code, ok := err.(Relayed); ok {
			st.count(int(code))
			return
		}
		switch {
		case err == nil:
			st.ok.Inc()
		case err == errStreamFailed:
			st.errors.Inc()
		default:
			code := statusOf(err)
			st.count(code)
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, code, errorBody{Error: err.Error()})
		}
	})
}

// Readiness opens every enriched /healthz body.
type Readiness struct {
	Status    string  `json:"status"` // "ok" or "draining"
	Draining  bool    `json:"draining"`
	UptimeSec float64 `json:"uptimeSec"`
}

// Readiness reports the front door's readiness now.
func (f *Front) Readiness() Readiness {
	rd := Readiness{Status: "ok", Draining: f.draining.Load(), UptimeSec: time.Since(f.started).Seconds()}
	if rd.Draining {
		rd.Status = "draining"
	}
	return rd
}

// HandleHealth mounts /healthz, a readiness probe: 200 {"status":"ok"}
// while serving, 503 {"error":"draining"} while draining. That bare
// one-field contract stays for existing probes and goldens; ?v=1 opts into
// the tier's enriched body, answered 503 when it reports draining.
func (f *Front) HandleHealth(health func() (body any, draining bool)) {
	f.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("v") == "1" {
			body, draining := health()
			code := http.StatusOK
			if draining {
				code = http.StatusServiceUnavailable
			}
			writeJSON(w, code, body)
			return
		}
		if f.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
}

// Server is a front door bound to a listener, with a drain path that loses
// no accepted request.
type Server struct {
	// Service is the served replica; nil when Listen serves another tier.
	Service *Service
	front   *Front
	stop    func()
	http    *http.Server
	addr    string
	done    chan error
}

// Serve binds addr (":0" picks a free port) and serves svc's API in a
// background goroutine. Stop with Drain.
func Serve(addr string, svc *Service) (*Server, error) {
	sv, err := Listen(addr, svc.Handler(), svc.pool.close)
	if err != nil {
		return nil, err
	}
	sv.Service = svc
	return sv, nil
}

// Listen binds addr (":0" picks a free port) and serves f in a background
// goroutine. Stop with Drain, which calls stop once no handler is left.
func Listen(addr string, f *Front, stop func()) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	sv := &Server{
		front: f,
		stop:  stop,
		http:  &http.Server{Handler: f},
		addr:  ln.Addr().String(),
		done:  make(chan error, 1),
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

// Drain performs the graceful-shutdown sequence:
//
//  1. flip the draining flag — every new request is answered 503 and
//     /healthz fails, so load balancers and the router's prober stop
//     sending here;
//  2. shut the HTTP server down, which closes the listener and waits for
//     in-flight handlers: a replica's wait on cache entries whose
//     computations sit in the worker pool, which never drops an accepted
//     task, so each gets its real response; a router's proxied requests,
//     each finishing against its replica;
//  3. call stop: a replica's pool closes (no handler remains to submit,
//     the queue runs dry, the workers exit); a router's prober stops. A
//     router drain never touches its replicas.
//
// If ctx expires mid-shutdown the remaining connections are closed
// forcibly and the context error is returned.
func (sv *Server) Drain(ctx context.Context) error {
	sv.front.SetDraining(true)
	err := sv.http.Shutdown(ctx)
	if err != nil {
		sv.http.Close()
	}
	sv.stop()
	if serveErr := <-sv.done; serveErr != nil && err == nil {
		err = serveErr
	}
	if err != nil {
		return fmt.Errorf("service: drain: %w", err)
	}
	return nil
}

// DrainTimeout is the default bound production callers give Drain.
const DrainTimeout = 30 * time.Second
