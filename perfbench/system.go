package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
)

// system is the served system a workload drives: one analysis service, or
// two replicas behind the consistent-hash router.
type system struct {
	url   string       // client-facing base URL
	m     *obs.Metrics // the served instruments (shared by both replicas)
	srv   *service.Server
	local *cluster.Local
}

// startSystem starts the served system in-process and returns once it
// answers /healthz (through the router: once the router sees both replicas
// healthy), with the time that took. The admission queue holds 256 tasks,
// the batch cap, as cmd/loadgen configures it: a cold batch enqueues one
// task per row atomically, and at the default 64 two concurrent 64-row
// sweeps would be refused with 429.
func startSystem(routed bool, hc *http.Client) (*system, time.Duration, error) {
	start := time.Now()
	s := &system{m: obs.New()}
	cfg := service.Config{QueueDepth: 256, Obs: s.m}
	if routed {
		lc, err := cluster.StartLocal(2, cfg, cluster.Config{Obs: s.m})
		if err != nil {
			return nil, 0, fmt.Errorf("start cluster: %w", err)
		}
		s.local, s.url = lc, lc.URL()
	} else {
		srv, err := service.Serve("127.0.0.1:0", service.New(cfg))
		if err != nil {
			return nil, 0, fmt.Errorf("start service: %w", err)
		}
		s.srv, s.url = srv, "http://"+srv.Addr()
	}
	if err := s.awaitHealthy(hc, 10*time.Second); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// awaitHealthy polls /healthz?v=1 until the system answers 200 and, behind
// the router, every replica is healthy.
func (s *system) awaitHealthy(hc *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		ok, err := s.healthy(hc)
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("system at %s not healthy after %v: %v", s.url, limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (s *system) healthy(hc *http.Client) (bool, error) {
	resp, err := hc.Get(s.url + "/healthz?v=1")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d: %v", resp.StatusCode, err)
	}
	if s.local == nil {
		return true, nil
	}
	var h cluster.RouterHealth
	if err := json.Unmarshal(body, &h); err != nil {
		return false, err
	}
	for rep, rh := range h.Replicas {
		if !rh.Healthy {
			return false, fmt.Errorf("replica %s unhealthy", rep)
		}
	}
	return len(h.Replicas) == 2, nil
}

// dialNoLinger dials TCP connections that reset instead of lingering when
// they are closed. A run starts and stops the served system hundreds of
// times; when the client side closes first with a reset, no TIME_WAIT
// socket is left behind. Thousands of those, left by the previous starts
// and runs, slow every later bind and connect enough to move setup_s
// severalfold.
func dialNoLinger(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		if err := tc.SetLinger(0); err != nil {
			c.Close()
			return nil, fmt.Errorf("set linger: %w", err)
		}
	}
	return c, nil
}

// closeIdle closes the benchmark's idle connections and the router
// prober's (which dials through http.DefaultTransport), so that they end
// with a reset before the system they lead to stops.
func closeIdle(hc *http.Client) {
	hc.CloseIdleConnections()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// stop drains the served system; every accepted request finishes first.
func (s *system) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), service.DrainTimeout)
	defer cancel()
	if s.local != nil {
		return s.local.Close(ctx)
	}
	return s.srv.Drain(ctx)
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// hitRatio reads a cache's hit ratio from the delta of two counter
// snapshots: hits over lookups, where a cache without a lookups counter
// (the plan memos) counts lookups as hits plus misses.
func hitRatio(before, after map[string]int64, prefix string) float64 {
	d := func(name string) int64 { return after[prefix+name] - before[prefix+name] }
	lookups := d(".lookups")
	if _, ok := after[prefix+".lookups"]; !ok {
		lookups = d(".hits") + d(".misses")
	}
	return ratio(d(".hits"), lookups)
}
