package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// ReplicaHealth is the prober's view of one backend replica.
type ReplicaHealth struct {
	// Healthy is true when the last probe answered 200: the replica is up
	// and not draining.
	Healthy bool `json:"healthy"`
	// Draining is true when the replica answered its drain 503 — it is
	// finishing in-flight work and its key range has fallen to its ring
	// successors.
	Draining bool `json:"draining"`
	// QueueDepth and FlightCacheEntries echo the replica's enriched
	// /healthz?v=1 body (zero when the replica is unreachable).
	QueueDepth         int64 `json:"queueDepth"`
	FlightCacheEntries int64 `json:"flightCacheEntries"`
	// Probes and Failures count this replica's probe outcomes.
	Probes   int64 `json:"probes"`
	Failures int64 `json:"failures"`
	// Error is the last probe failure ("" while healthy).
	Error string `json:"error,omitempty"`
}

// prober tracks backend replica health by polling /healthz?v=1. Between
// polls, the router feeds transport failures back through markDown so a
// dead replica stops receiving traffic immediately instead of after the
// next probe tick.
type prober struct {
	replicas []string
	client   *http.Client
	interval time.Duration

	mu    sync.RWMutex
	state map[string]*ReplicaHealth

	stop chan struct{}
	done chan struct{}

	probes, failures *obs.Counter
	healthyGauge     *obs.Gauge
}

// probeTimeout bounds one health probe.
const probeTimeout = 2 * time.Second

// newProber creates a prober for the replica set; start launches the poll
// loop after one synchronous round, so the router never routes on an empty
// health picture.
func newProber(replicas []string, interval time.Duration, m *obs.Metrics) *prober {
	p := &prober{
		replicas:     replicas,
		client:       &http.Client{Timeout: probeTimeout},
		interval:     interval,
		state:        make(map[string]*ReplicaHealth, len(replicas)),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		probes:       m.Counter("router.probes"),
		failures:     m.Counter("router.probe.failures"),
		healthyGauge: m.Gauge("router.replicas.healthy"),
	}
	for _, r := range replicas {
		p.state[r] = &ReplicaHealth{}
	}
	return p
}

func (p *prober) start() {
	p.probeAll()
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.probeAll()
			case <-p.stop:
				return
			}
		}
	}()
}

func (p *prober) close() {
	close(p.stop)
	<-p.done
}

// probeAll probes every replica once, sequentially — the set is small and
// the client timeout bounds each probe.
func (p *prober) probeAll() {
	for _, r := range p.replicas {
		p.probe(r)
	}
}

// probe polls one replica's enriched health endpoint and records the
// outcome. A 200 is healthy; the drain 503 marks the replica draining; any
// other answer (or a transport failure) is plain unhealthy.
func (p *prober) probe(replica string) {
	p.probes.Inc()
	var h service.HealthStatus
	healthy, errStr := false, ""
	resp, err := p.client.Get(replica + "/healthz?v=1")
	if err != nil {
		errStr = err.Error()
	} else {
		body, rerr := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		switch {
		case rerr != nil:
			errStr = rerr.Error()
		case resp.StatusCode == http.StatusOK:
			healthy = true
			_ = json.Unmarshal(body, &h)
		default:
			_ = json.Unmarshal(body, &h)
			errStr = resp.Status
		}
	}
	if !healthy {
		p.failures.Inc()
	}
	p.mu.Lock()
	st := p.state[replica]
	st.Healthy = healthy
	st.Draining = h.Draining
	st.QueueDepth = h.QueueDepth
	st.FlightCacheEntries = h.FlightCacheEntries
	st.Probes++
	if !healthy {
		st.Failures++
	}
	st.Error = errStr
	p.updateGaugeLocked()
	p.mu.Unlock()
}

// markDown records a router-observed transport failure: the replica is
// unhealthy right now, whatever the last probe said. The next probe tick
// re-evaluates, so a transient failure costs at most one probe interval of
// exclusion.
func (p *prober) markDown(replica string, err error) {
	p.mu.Lock()
	if st, ok := p.state[replica]; ok {
		st.Healthy = false
		st.Error = err.Error()
		p.updateGaugeLocked()
	}
	p.mu.Unlock()
}

func (p *prober) updateGaugeLocked() {
	n := int64(0)
	for _, st := range p.state {
		if st.Healthy {
			n++
		}
	}
	p.healthyGauge.Set(n)
}

// healthy reports whether a replica is currently routable.
func (p *prober) healthy(replica string) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st, ok := p.state[replica]
	return ok && st.Healthy
}

// snapshot copies the current health picture (the /healthz?v=1 body of the
// router itself).
func (p *prober) snapshot() map[string]ReplicaHealth {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string]ReplicaHealth, len(p.state))
	for r, st := range p.state {
		out[r] = *st
	}
	return out
}
