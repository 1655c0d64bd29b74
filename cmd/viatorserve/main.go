// Command viatorserve is viator's live service mode: a resident HTTP
// server that hosts scenario runs executing continuously on the
// deterministic kernel while exposing streaming telemetry, run control
// and pprof. Runs are started over the JSON API (builtin catalog name or
// an inline scenario-DSL spec) and observed through /metrics (live
// Prometheus text), /api/v1/stream (live JSONL rollups and trace events)
// and the /api/v1/runs status endpoints — all reads come from immutable
// snapshots published at telemetry-tick barriers, so observation cannot
// perturb a run.
//
// Usage:
//
//	viatorserve [-addr :8077] [-pace 1] [-publish-every 0.5] [-run s1 [-seed 42]]
//
// -pace scales sim time against wall time: 1 runs scenarios in real
// time (one sim second per wall second), 10 runs them 10x faster, and 0
// free-runs the kernel flat out. -run starts one run at boot so the
// server is immediately scrapeable without an API call.
//
// SIGINT or SIGTERM stops the server gracefully: it stops accepting
// connections, ends open streams, lets in-flight requests finish within
// a fixed grace period and exits 0. A request still open when the grace
// period ends is cut off, and the exit status is 1. Runs still executing
// are abandoned where they stand.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"viator/internal/serve"
)

// sleepPacer throttles drivers against the wall clock: each published
// window of simDelta sim seconds costs simDelta/factor wall seconds.
// This is the only wall-clock coupling in the service and it lives here,
// outside the deterministic lint scope — internal/serve itself never
// reads time.
type sleepPacer struct {
	factor float64 // sim seconds per wall second
}

func (p sleepPacer) Pace(simDelta float64) {
	time.Sleep(time.Duration(simDelta / p.factor * float64(time.Second)))
}

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so idle or trickling connections cannot pile up. Streams and
// long scrapes are unaffected: it stops counting once the headers are in.
const readHeaderTimeout = 10 * time.Second

// shutdownGrace bounds how long a stopping server waits for in-flight
// requests before it closes their connections.
const shutdownGrace = 5 * time.Second

// newHTTPServer builds the listener the command serves h on.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// run serves until ctx is cancelled, then shuts the listener down. Open
// streams end with ctx: every request's context derives from it.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("viatorserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8077", "listen address")
	pace := fs.Float64("pace", 1, "sim seconds advanced per wall second; 0 free-runs")
	publishEvery := fs.Float64("publish-every", 0.5, "snapshot publication period in sim seconds")
	bootRun := fs.String("run", "", "scenario to start at boot (s1, s2, s3, s3s)")
	bootSeed := fs.Uint64("seed", 42, "seed for the boot run")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := serve.Config{PublishEvery: *publishEvery}
	if *pace > 0 {
		cfg.Pacer = sleepPacer{factor: *pace}
	}
	s := serve.New(cfg)

	if *bootRun != "" {
		r, err := s.Start(*bootRun, *bootSeed)
		if err != nil {
			fmt.Fprintf(stderr, "viatorserve: -run %s: %v\n", *bootRun, err)
			return 1
		}
		fmt.Fprintf(stdout, "started run %s (%s, seed %d)\n", r.ID(), *bootRun, *bootSeed)
	}

	fmt.Fprintf(stdout, "viatorserve listening on %s\n", *addr)
	srv := newHTTPServer(*addr, s.Handler())
	srv.BaseContext = func(net.Listener) context.Context { return ctx }
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	select {
	case err := <-served:
		fmt.Fprintf(stderr, "viatorserve: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(grace); err != nil {
		srv.Close()
		fmt.Fprintf(stderr, "viatorserve: shutdown: %v\n", err)
		return 1
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "viatorserve: %v\n", err)
		return 1
	}
	return 0
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}
