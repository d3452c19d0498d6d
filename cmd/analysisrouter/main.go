// Command analysisrouter is the cluster tier's front door: a thin HTTP
// router that consistent-hashes canonical request keys across a set of
// analysisd replicas (internal/cluster). Each replica's caches stay hot for
// exactly its key range; /v1/batch requests are split by item key, fanned
// out, and reassembled byte-identical to a single backend's envelope.
//
// Usage:
//
//	analysisrouter -replicas http://h1:8097,http://h2:8097 [-addr :8090]
//	               [-vnodes 512] [-attempts 0] [-hedge 100ms]
//	               [-max-inflight 256] [-max-batch 256] [-timeout 30s]
//	               [-probe-interval 500ms] [-debug-addr :8091] [-report run.json]
//
// The process prints one "analysisrouter listening on ADDR" line once the
// listener is bound (scripts wait for it), routes until SIGINT/SIGTERM,
// then drains: new requests get 503, in-flight ones finish against their
// replicas, and — with -report — a RunReport with the router metrics is
// written before exit. Draining the router never touches the backends.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address for the router")
		replicas      = flag.String("replicas", "", "comma-separated replica base URLs (required)")
		vnodes        = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per replica on the hash ring")
		attempts      = flag.Int("attempts", 0, "max distinct replicas tried per request (0 = all)")
		hedge         = flag.Duration("hedge", 100*time.Millisecond, "delay before hedging to the next ring successor")
		maxInflight   = flag.Int("max-inflight", 256, "max concurrently proxied requests (full answers 429)")
		maxBatch      = flag.Int("max-batch", 0, "max items per /v1/batch request (0 = default 256; must not exceed the replicas' cap)")
		timeout       = flag.Duration("timeout", 30*time.Second, "per-request end-to-end timeout, hedges included")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "replica health poll period")
		drainWait     = flag.Duration("drain-timeout", service.DrainTimeout, "bound on the shutdown drain")
		debugAddr     = flag.String("debug-addr", "", "listen address for the expvar/pprof debug server (off when empty)")
		report        = flag.String("report", "", "write a RunReport JSON on exit")
	)
	flag.Parse()
	if err := run(*addr, *replicas, *vnodes, *attempts, *hedge, *maxInflight, *maxBatch, *timeout, *probeInterval, *drainWait, *debugAddr, *report); err != nil {
		fmt.Fprintln(os.Stderr, "analysisrouter:", err)
		os.Exit(1)
	}
}

func run(addr, replicas string, vnodes, attempts int, hedge time.Duration, maxInflight, maxBatch int, timeout, probeInterval, drainWait time.Duration, debugAddr, report string) error {
	var urls []string
	for _, r := range strings.Split(replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			urls = append(urls, strings.TrimSuffix(r, "/"))
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("-replicas is required (comma-separated analysisd base URLs)")
	}
	m := obs.New()
	rt, err := cluster.New(cluster.Config{
		Replicas:       urls,
		VNodes:         vnodes,
		Attempts:       attempts,
		Hedge:          hedge,
		MaxInFlight:    maxInflight,
		MaxBatchItems:  maxBatch,
		RequestTimeout: timeout,
		ProbeInterval:  probeInterval,
		Obs:            m,
	})
	if err != nil {
		return err
	}
	sv, err := service.Listen(addr, rt.Handler(), rt.Close)
	if err != nil {
		rt.Close()
		return err
	}
	return sv.RunDaemon("analysisrouter", fmt.Sprintf(" (%d replicas)", len(urls)), m, debugAddr, report, drainWait)
}
