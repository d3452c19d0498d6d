package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// batchPath is the many-computations route; every other /v1 route is a row
// of the endpoint table.
const batchPath = "/v1/batch"

// MaxBodyBytes bounds request bodies; nest sources are small.
const MaxBodyBytes = 1 << 20

// ReadBody reads a request body of at most MaxBodyBytes. A longer body is
// an error that names the limit, never a silently truncated read. The
// cluster router reads through it too, so both tiers reject an oversized
// body with the same bytes.
func ReadBody(r io.Reader) ([]byte, error) {
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

var (
	errPostOnly       = &httpError{http.StatusMethodNotAllowed, "POST only"}
	errDraining       = &httpError{http.StatusServiceUnavailable, "draining"}
	errNoStream       = &httpError{http.StatusBadRequest, "streaming is not supported on this endpoint"}
	errWaitTimeout    = &httpError{http.StatusGatewayTimeout, "timed out waiting for result"}
	errComputeTimeout = &httpError{http.StatusGatewayTimeout, "computation timed out"}
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

// Handler returns the service's HTTP mux: every endpoint-table route and
// /v1/batch behind the one request lifecycle, plus /healthz (200 while
// serving, 503 while draining — a readiness probe).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	for path, ep := range endpoints {
		mux.Handle(path, s.handle(ep.name, s.serveEndpoint(path, ep)))
	}
	mux.Handle(batchPath, s.handle("batch", s.serveBatch))
	// /healthz keeps its bare one-field contract (200 {"status":"ok"} /
	// 503 {"error":"draining"}) for existing probes and goldens; ?v=1 opts
	// into the enriched HealthStatus body the cluster prober consumes, with
	// the same status-code semantics.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("v") == "1" {
			h := s.Health()
			code := http.StatusOK
			if h.Draining {
				code = http.StatusServiceUnavailable
			}
			writeJSON(w, code, h)
			return
		}
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// route serves one admitted request: it writes a 200 and returns nil, or
// returns the error the lifecycle answers — errStreamFailed once it has
// committed a 200 stream.
type route func(w http.ResponseWriter, r *http.Request, body []byte) error

// handle wraps a /v1 route in the request lifecycle every route shares:
// latency and counters, the POST and draining checks, the bounded body
// read, then serve, whose error is answered through statusOf. Exactly one
// of ok/errors/rejected is counted per request — 429 and 503 are
// rejections, every other failure an error — so requests == ok + errors +
// rejected holds whenever the counters are quiescent.
func (s *Service) handle(name string, serve route) http.HandlerFunc {
	st := s.eps[name]
	return func(w http.ResponseWriter, r *http.Request) {
		sw := st.latency.Start()
		defer sw.Stop()
		s.total.Inc()
		st.requests.Inc()
		var err error
		switch {
		case r.Method != http.MethodPost:
			err = errPostOnly
		case s.draining.Load():
			err = errDraining
		default:
			var body []byte
			if body, err = ReadBody(r.Body); err == nil {
				err = serve(w, r, body)
			}
		}
		switch {
		case err == nil:
			st.ok.Inc()
		case err == errStreamFailed:
			st.errors.Inc()
		default:
			code := statusOf(err)
			if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
				st.rejected.Inc()
			} else {
				st.errors.Inc()
			}
			if code == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, code, errorBody{Error: err.Error()})
		}
	}
}

// serveEndpoint serves a table route. ?stream=1 runs the search stream
// where the endpoint has one. Otherwise the first caller for a key leads
// and the rest coalesce (singleflight): the leader's computation runs on
// the worker pool under the service timeout, detached from this request's
// context — a coalesced waiter must not lose the result because the
// leader's client hung up.
func (s *Service) serveEndpoint(path string, ep endpoint) route {
	return func(w http.ResponseWriter, r *http.Request, body []byte) error {
		q := r.URL.Query()
		stream := q.Get("stream") == "1"
		if stream && !ep.streams {
			return errNoStream
		}
		key, compute, err := s.plan(path, body)
		if err != nil {
			return err
		}
		if stream {
			return s.serveSearchStream(w, r, compute)
		}
		e, leader := s.resp.acquire(key)
		if leader {
			e.transient = hedged(r)
		}
		if leader && !s.pool.trySubmit(s.leaderTask(e, compute)) {
			// Complete the entry so coalesced waiters see the same
			// overload instead of hanging; the error also removes the
			// entry, so the key retries cleanly.
			s.resp.complete(e, nil, ErrOverload)
		}
		wait, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		select {
		case <-e.done:
		case <-wait.Done():
			return errWaitTimeout
		}
		if e.err != nil {
			if statusOf(e.err) == http.StatusGatewayTimeout {
				return errComputeTimeout
			}
			return e.err
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if q.Get("pretty") == "1" {
			writePretty(w, e.val)
		} else {
			w.Write(e.val)
		}
		return nil
	}
}

// HedgeHeader marks a request that a router sent as a hedge: a second ask
// for a key whose owner has not answered yet. A replica answers a hedged
// request as usual but does not keep a response-cache entry that the hedge
// led, so each key stays cached on its owner alone.
const HedgeHeader = "X-Hedged"

func hedged(r *http.Request) bool { return r.Header.Get(HedgeHeader) != "" }

// leaderTask is the pool task a response-cache leader submits: compute
// under the service timeout, then publish the result to every waiter.
func (s *Service) leaderTask(e *flightEntry[[]byte], compute computeFn) func() {
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
		defer cancel()
		data, err := compute(s, ctx, nil)
		s.resp.complete(e, data, err)
	}
}

// writePretty re-indents a cached compact response for human readers.
// Cached and verified bytes stay compact — pretty is presentation only,
// applied at write time, never stored.
func writePretty(w io.Writer, data []byte) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, bytes.TrimSuffix(data, []byte{'\n'}), "", "  "); err != nil {
		w.Write(data)
		return
	}
	buf.WriteByte('\n')
	w.Write(buf.Bytes())
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

// Server is a Service bound to a listener, with a drain path that loses no
// accepted request.
type Server struct {
	Service *Service
	http    *http.Server
	addr    string
	done    chan error
}

// Serve binds addr (":0" picks a free port) and serves the API in a
// background goroutine. Stop with Drain.
func Serve(addr string, svc *Service) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	sv := &Server{
		Service: svc,
		http:    &http.Server{Handler: svc.Handler()},
		addr:    ln.Addr().String(),
		done:    make(chan error, 1),
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
//     /healthz fails, so load balancers stop routing here;
//  2. shut the HTTP server down, which closes the listener and waits for
//     in-flight handlers; those handlers are waiting on cache entries
//     whose computations sit in the worker pool, and the pool never drops
//     an accepted task, so each gets its real response;
//  3. close the pool: admission is already impossible (no handlers
//     remain), the queue runs dry, the workers exit.
//
// If ctx expires mid-shutdown the remaining connections are closed
// forcibly and the context error is returned.
func (sv *Server) Drain(ctx context.Context) error {
	sv.Service.draining.Store(true)
	err := sv.http.Shutdown(ctx)
	if err != nil {
		sv.http.Close()
	}
	sv.Service.pool.close()
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
