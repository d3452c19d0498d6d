package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/service"
)

// Local is an in-process cluster: K analysisd replicas plus a router, all
// on loopback listeners. It is the harness behind the cluster tests and
// perfbench's serve-hot workload — the same Service and Router code
// production runs, minus process boundaries.
type Local struct {
	replicaServers []*service.Server
	router         *Router
	routerServer   *service.Server

	mu      sync.Mutex
	drained []bool
}

// StartLocal starts n replicas with identical service configs and a router
// over them. scfg.Obs, if set, is shared by every replica — pass nil (or a
// per-run registry) and read per-replica state over /healthz?v=1 instead
// when per-replica numbers matter. Stop with Close.
func StartLocal(n int, scfg service.Config, rcfg Config) (*Local, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one replica, got %d", n)
	}
	lc := &Local{drained: make([]bool, n)}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		sv, err := service.Serve("127.0.0.1:0", service.New(scfg))
		if err != nil {
			lc.Close(context.Background())
			return nil, err
		}
		lc.replicaServers = append(lc.replicaServers, sv)
		urls = append(urls, "http://"+sv.Addr())
	}
	rcfg.Replicas = urls
	rt, err := New(rcfg)
	if err != nil {
		lc.Close(context.Background())
		return nil, err
	}
	rsv, err := service.Listen("127.0.0.1:0", rt.Handler(), rt.Close)
	if err != nil {
		rt.Close()
		lc.Close(context.Background())
		return nil, err
	}
	lc.router, lc.routerServer = rt, rsv
	return lc, nil
}

// URL is the router's base URL — the cluster's single client-facing
// address.
func (lc *Local) URL() string { return "http://" + lc.routerServer.Addr() }

// Replicas returns the replica base URLs in start order.
func (lc *Local) Replicas() []string {
	urls := make([]string, len(lc.replicaServers))
	for i, sv := range lc.replicaServers {
		urls[i] = "http://" + sv.Addr()
	}
	return urls
}

// Close drains the router first (no new client work), then every
// still-running replica. Safe after partial startup and after
// DrainReplica.
func (lc *Local) Close(ctx context.Context) error {
	var first error
	if lc.routerServer != nil {
		if err := lc.routerServer.Drain(ctx); err != nil && first == nil {
			first = err
		}
		lc.routerServer = nil
	}
	for i, sv := range lc.replicaServers {
		lc.mu.Lock()
		skip := lc.drained[i]
		lc.drained[i] = true
		lc.mu.Unlock()
		if skip {
			continue
		}
		if err := sv.Drain(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}
