package cluster

import (
	"context"

	"repro/internal/service"
)

// Router returns the router instance (metrics, health).
func (lc *Local) Router() *Router { return lc.routerServer.Router }

// ReplicaServer returns replica i's server (its Service field reaches the
// underlying service).
func (lc *Local) ReplicaServer(i int) *service.Server { return lc.replicaServers[i] }

// DrainReplica gracefully drains replica i while the cluster keeps
// serving: the replica finishes its in-flight work, starts answering 503,
// the prober notices, and the replica's key range remaps to its ring
// successors. Idempotent per replica.
func (lc *Local) DrainReplica(ctx context.Context, i int) error {
	lc.mu.Lock()
	if lc.drained[i] {
		lc.mu.Unlock()
		return nil
	}
	lc.drained[i] = true
	lc.mu.Unlock()
	return lc.replicaServers[i].Drain(ctx)
}
