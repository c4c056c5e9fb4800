// Command repexd is the multi-run daemon: a single process that
// launches, observes and cancels many concurrent replica-exchange
// simulations over HTTP, sharing one bounded core pool — the service
// face of the same flexible execution modes cmd/repex runs one at a
// time.
//
// Usage:
//
//	repexd [-config daemon.json] [-listen HOST:PORT]
//	       [-total-cores N] [-max-runs N] [-log-level LEVEL]
//
// The optional config file follows internal/config.Daemon; flags
// override it. Endpoints (see docs/repexd.md):
//
//	POST   /runs              launch from a config.Launch JSON body
//	GET    /runs              list run statuses
//	GET    /runs/{id}         one run's status
//	DELETE /runs/{id}         cancel at the next exchange boundary
//	GET    /runs/{id}/status  (also /stats, /metrics, /trace, /events)
//	GET    /metrics           aggregate Prometheus scrape, run-labelled
//	GET    /status            daemon status (runs, pool)
//	GET    /healthz           liveness probe with a run-state summary
//
// Every run gets its own bounded flight recorder ("trace_events" in the
// config sets its depth), served as Chrome trace-event JSON at
// GET /runs/{id}/trace. A "pprof": true config key mounts
// net/http/pprof under /debug/pprof/ — off by default; see
// docs/observability.md for the security note.
//
// A resume launch is a POST /runs whose body names a snapshot file in
// "resume"; checkpoints are written atomically to the "checkpoint"
// path. On SIGINT/SIGTERM the daemon cancels every active run and
// waits up to drain_timeout_sec for final snapshots before exiting.
// Diagnostics go to stderr as structured key=value lines; -log-level
// (debug, info, warn, error) sets the threshold.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/serve"
)

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "repexd:", err)
		os.Exit(2)
	}
	d, err := o.daemon()
	if err == nil {
		err = run(d)
	}
	if err != nil {
		slog.Error("daemon failed", "error", err)
		os.Exit(1)
	}
}

// options is the command line: the optional config file and the flags
// that override it.
type options struct {
	cfgPath, listen     string
	totalCores, maxRuns int
}

// parseArgs parses the command line and installs the logger -log-level
// asks for. Malformed flags exit through the flag package.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("repexd", flag.ExitOnError)
	fs.StringVar(&o.cfgPath, "config", "", "daemon JSON config file (internal/config.Daemon)")
	fs.StringVar(&o.listen, "listen", "", "host:port to bind (overrides the config file)")
	fs.IntVar(&o.totalCores, "total-cores", -1, "shared core-pool capacity, 0 unbounded (overrides the config file)")
	fs.IntVar(&o.maxRuns, "max-runs", -1, "concurrently active run bound, 0 unbounded (overrides the config file)")
	logLevel := fs.String("log-level", "info", "stderr log threshold: debug, info, warn or error")
	_ = fs.Parse(args)
	return o, serve.SetupLogging(*logLevel)
}

// daemon reads the config file (defaults without one) and applies the
// flag overrides: a non-empty -listen and a non-negative -total-cores
// or -max-runs replace the file's value; -1 keeps it.
func (o options) daemon() (*config.Daemon, error) {
	d := &config.Daemon{}
	if o.cfgPath != "" {
		data, err := os.ReadFile(o.cfgPath)
		if err != nil {
			return nil, err
		}
		if d, err = config.ParseDaemon(data); err != nil {
			return nil, err
		}
	} else if err := d.Normalize(); err != nil {
		return nil, err
	}
	if o.listen != "" {
		d.Listen = o.listen
	}
	if o.totalCores >= 0 {
		d.TotalCores = o.totalCores
	}
	if o.maxRuns >= 0 {
		d.MaxRuns = o.maxRuns
	}
	return d, nil
}

// run serves the daemon until its listener fails or a signal drains it.
func run(d *config.Daemon) error {
	reg := serve.NewRegistry(d.TotalCores, d.MaxRuns)
	reg.SetLogger(slog.Default())
	reg.SetTraceEvents(d.TraceEvents)
	if d.Pprof {
		reg.EnablePprof()
		slog.Warn("pprof endpoints enabled under /debug/pprof/; keep the listener trusted")
	}
	lis, err := net.Listen("tcp", d.Listen)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           reg.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()
	slog.Info("listening", "addr", fmt.Sprintf("http://%s", lis.Addr()),
		"total_cores", d.TotalCores, "max_runs", d.MaxRuns)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		// Graceful drain: stop accepting work, cancel every active run
		// (each writes its final boundary snapshot if configured) and
		// bound the wait so a wedged run cannot block shutdown forever.
		slog.Info("draining runs", "signal", s.String())
		_ = srv.Close()
		reg.CancelAll()
		timeout := time.Duration(d.DrainTimeoutSec * float64(time.Second))
		if !reg.Wait(timeout) {
			return fmt.Errorf("drain timed out after %s with runs still active", timeout)
		}
		slog.Info("drained")
	}
	return nil
}
