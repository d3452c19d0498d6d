package service

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
)

// RunDaemon is a serving daemon's life once sv listens: it starts the
// expvar/pprof debug server on debugAddr (none when empty), prints the
// "NAME listening on ADDR" line scripts wait for, with note appended,
// serves until SIGINT or SIGTERM, then drains within drainWait, shuts the
// debug server down and, when report is set, writes a RunReport of m. It
// prints "NAME: drained cleanly" last, and only when every step succeeded.
func (sv *Server) RunDaemon(name, note string, m *obs.Metrics, debugAddr, report string, drainWait time.Duration) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var debug *obs.DebugServer
	if debugAddr != "" {
		var err error
		if debug, err = obs.StartDebugServer(debugAddr, m); err != nil {
			return err
		}
		fmt.Printf("%s debug server on %s\n", name, debug.Addr)
	}
	fmt.Printf("%s listening on %s%s\n", name, sv.Addr(), note)
	fmt.Printf("%s: %s, draining\n", name, <-sig)

	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	err := sv.Drain(ctx)
	if debug != nil {
		if derr := debug.Shutdown(ctx); err == nil {
			err = derr
		}
	}
	if report != "" {
		rep := obs.NewRunReport(name, os.Args[1:])
		rep.AddMetrics(m)
		rep.Finish()
		if rerr := rep.WriteFile(report); err == nil {
			err = rerr
		}
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: drained cleanly\n", name)
	return nil
}
