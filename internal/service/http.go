package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
)

// batchPath is the many-computations route; every other /v1 route is a row
// of the endpoint table.
const batchPath = "/v1/batch"

var (
	errNoStream       = &httpError{http.StatusBadRequest, "streaming is not supported on this endpoint"}
	errWaitTimeout    = &httpError{http.StatusGatewayTimeout, "timed out waiting for result"}
	errComputeTimeout = &httpError{http.StatusGatewayTimeout, "computation timed out"}
)

// Handler returns the service's front door: every endpoint-table route and
// /v1/batch behind the shared request lifecycle, plus /healthz (200 while
// serving, 503 while draining — a readiness probe).
func (s *Service) Handler() *Front { return s.front }

// serveEndpoint serves a table route. ?stream=1 runs the search stream
// where the endpoint has one. Otherwise the first caller for a key leads
// and the rest coalesce (singleflight): the leader's computation runs on
// the worker pool under the service timeout, detached from this request's
// context — a coalesced waiter must not lose the result because the
// leader's client hung up.
func (s *Service) serveEndpoint(path string, ep endpoint) Route {
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
