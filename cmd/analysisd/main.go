// Command analysisd serves the cache model over HTTP: the /v1 endpoints
// of internal/service (analyze, predict, tilesearch, simulate, batch —
// the latter two also as ?stream=1 NDJSON) plus /healthz, with admission
// control, request coalescing and a graceful SIGTERM drain. See README's
// Serving section for the API.
//
// Usage:
//
//	analysisd [-addr :8097] [-debug-addr :8098] [-workers N] [-queue N]
//	          [-cache-entries N] [-max-batch N] [-timeout 30s] [-report run.json]
//
// The process prints one "analysisd listening on ADDR" line once the
// listener is bound (scripts wait for it), serves until SIGINT/SIGTERM,
// then drains: new requests get 503, in-flight ones complete, the worker
// queue runs dry, and — when -report is given — a RunReport with the full
// service metrics is written before exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", ":8097", "listen address for the API")
		debugAddr    = flag.String("debug-addr", "", "listen address for the expvar/pprof debug server (off when empty)")
		workers      = flag.Int("workers", 0, "compute workers (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 64, "admission queue depth (full queue answers 429)")
		cacheEntries = flag.Int("cache-entries", 256, "response cache capacity")
		maxBatch     = flag.Int("max-batch", 0, "max items per /v1/batch request (0 = default 256)")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request compute/wait timeout")
		drainWait    = flag.Duration("drain-timeout", service.DrainTimeout, "bound on the shutdown drain")
		report       = flag.String("report", "", "write a RunReport JSON on exit")
	)
	flag.Parse()
	if err := run(*addr, *debugAddr, *workers, *queue, *cacheEntries, *maxBatch, *timeout, *drainWait, *report); err != nil {
		fmt.Fprintln(os.Stderr, "analysisd:", err)
		os.Exit(1)
	}
}

func run(addr, debugAddr string, workers, queue, cacheEntries, maxBatch int, timeout, drainWait time.Duration, report string) error {
	m := obs.New()
	sv, err := service.Serve(addr, service.New(service.Config{
		Workers:        workers,
		QueueDepth:     queue,
		CacheEntries:   cacheEntries,
		MaxBatchItems:  maxBatch,
		RequestTimeout: timeout,
		Obs:            m,
	}))
	if err != nil {
		return err
	}
	return sv.RunDaemon("analysisd", "", m, debugAddr, report, drainWait)
}
