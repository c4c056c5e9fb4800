// Command repex runs a replica-exchange simulation described by a JSON
// simulation file and a JSON resource file, in virtual time on the
// modelled cluster — the reproduction's equivalent of the RepEx
// command-line entry points (repex-amber-t, repex-namd-t, ...).
//
// Usage:
//
//	repex -sim simulation.json -res resource.json
//
// The simulation file follows internal/config.Simulation, e.g.:
//
//	{
//	  "name": "tsu-demo", "engine": "amber", "atoms": 2881,
//	  "dimensions": [
//	    {"type": "T", "count": 6, "min": 273, "max": 373},
//	    {"type": "S", "values": [0.1, 0.2, 0.4]},
//	    {"type": "U", "count": 8, "torsion": "phi"}
//	  ],
//	  "cores_per_replica": 1, "steps_per_cycle": 6000, "cycles": 4
//	}
//
// The optional "trigger" field ("barrier", "window", "count",
// "adaptive", "feedback", with "trigger_count" / "async_window_sec" /
// "target_acceptance" / "window_events" as parameters) selects an
// exchange-trigger policy beyond the two canonical patterns; the
// -trigger, -target-acceptance and -window-events flags override the
// file.
//
// and the resource file internal/config.Resource:
//
//	{"machine": "supermic", "pilot_cores": 144, "walltime_sec": 3600}
//
// A positive "walltime_sec" bounds each pilot's life; expired pilots are
// replaced transparently (failover) and interrupted MD segments are
// resubmitted. Checkpoint/restart covers runs longer than any single
// session: -checkpoint FILE writes a snapshot every -checkpoint-every
// exchange events (0: only the snapshot a cancellation leaves), and
// -resume FILE continues a killed run from its last snapshot. The run
// is assembled by serve.Prepare, exactly as a repexd launch is.
//
// Observability: -listen HOST:PORT (or a "serve": {"listen": ...} block
// in the simulation file) starts the live HTTP status server with
// GET /status, /stats, /metrics (Prometheus text format), /healthz and
// /trace. With a listener active the process keeps serving after the
// run completes until interrupted, so the final statistics remain
// scrapeable. A "serve": {"pprof": true} block additionally mounts
// net/http/pprof under /debug/pprof/ (off by default — see
// docs/observability.md for the security note).
//
// Tracing: -trace FILE attaches the bounded flight recorder and writes
// the run's span timeline as Chrome trace-event JSON at exit; load the
// file in Perfetto (https://ui.perfetto.dev) or chrome://tracing. With
// -listen the recorder is attached too and served live at GET /trace.
//
// Diagnostics go to stderr as structured key=value lines; -log-level
// (debug, info, warn, error) sets the threshold. The human-readable
// run report stays on stdout.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/analysis"
	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/trace"
)

func main() {
	var o options
	flag.StringVar(&o.simPath, "sim", "", "simulation JSON file (required)")
	flag.StringVar(&o.resPath, "res", "", "resource JSON file (required)")
	flag.StringVar(&o.resumePath, "resume", "", "snapshot file to resume from")
	flag.StringVar(&o.ckptPath, "checkpoint", "", "snapshot file to write checkpoints to")
	flag.IntVar(&o.ckptEvery, "checkpoint-every", 1, "exchange events between checkpoints (0: only the cancellation snapshot)")
	flag.StringVar(&o.listen, "listen", "", "host:port for the live status server (overrides the sim file's serve block)")
	flag.StringVar(&o.trigger, "trigger", "", "exchange-trigger policy override: barrier, window, count, adaptive or feedback")
	targetAcc := flag.String("target-acceptance", "", "feedback trigger acceptance set point: a scalar in (0,1) or a per-dimension JSON map like '{\"T\":0.4,\"U\":0.25}'; empty keeps the sim file's value (requires the feedback trigger)")
	flag.IntVar(&o.windowEvents, "window-events", 0, "rolling-window depth for pair statistics and the feedback trigger (overrides the sim file)")
	flag.StringVar(&o.tracePath, "trace", "", "write the flight recorder's span timeline as Chrome trace-event JSON to this file at exit")
	flag.Float64Var(&o.preemptNotice, "preempt-notice", -1, "default preemption notice window in virtual seconds for chaos preempt events that omit notice_sec (overrides the resource file's preempt_notice_sec; negative keeps the file's value)")
	flag.BoolVar(&o.noChaos, "no-chaos", false, "ignore the resource file's chaos plan (run the same config on quiet resources)")
	logLevel := flag.String("log-level", "info", "stderr log threshold: debug, info, warn or error")
	flag.Parse()
	if o.simPath == "" || o.resPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := serve.SetupLogging(*logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "repex:", err)
		os.Exit(2)
	}
	if *targetAcc != "" {
		ta, err := parseTargetAcceptance(*targetAcc)
		if err != nil {
			slog.Error("invalid flag", "error", err)
			os.Exit(2)
		}
		o.targetAcceptance = &ta
	}
	// SIGINT/SIGTERM cancels through the dispatcher's context path: the
	// run stops at the next exchange boundary, drains its in-flight
	// segments and (with -checkpoint) leaves a resumable final snapshot.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if _, err := run(ctx, o, os.Stdout); err != nil {
		slog.Error("run failed", "error", err)
		os.Exit(1)
	}
}

// options are the command line: the two config files, checkpointing and
// observability, and the knobs that take precedence over the simulation
// file's trigger fields and the resource file's chaos knobs.
type options struct {
	simPath, resPath     string
	resumePath, ckptPath string
	ckptEvery            int
	listen, tracePath    string

	trigger          string
	targetAcceptance *config.TargetAcceptance
	windowEvents     int
	// preemptNotice overrides the resource's preempt_notice_sec when
	// non-negative; noChaos drops the resource's chaos plan entirely.
	preemptNotice float64
	noChaos       bool
}

// parseTargetAcceptance parses the -target-acceptance flag: the same
// two forms the config file accepts (scalar or per-dimension map),
// routed through the config type so validation lives in one place. A
// zero value is rejected rather than silently overriding the sim
// file's set point with the built-in default — leaving the flag off is
// the "keep the file's value" form.
func parseTargetAcceptance(arg string) (config.TargetAcceptance, error) {
	var ta config.TargetAcceptance
	if err := ta.UnmarshalJSON([]byte(arg)); err != nil {
		return ta, fmt.Errorf("-target-acceptance %q: want a number or a JSON map like {\"T\":0.4}: %v", arg, err)
	}
	if ta.IsZero() {
		return ta, fmt.Errorf("-target-acceptance %q: want a value in (0,1) or a non-empty map; omit the flag to keep the sim file's value", arg)
	}
	return ta, nil
}

// launch reads the two config files into a config.Launch, applies the
// flag overrides, and validates it by the same rules as a repexd launch
// body.
func (o options) launch() (*config.Launch, error) {
	simData, err := os.ReadFile(o.simPath)
	if err != nil {
		return nil, err
	}
	resData, err := os.ReadFile(o.resPath)
	if err != nil {
		return nil, err
	}
	l := &config.Launch{Resume: o.resumePath}
	if l.Sim, err = config.ParseSimulation(simData); err != nil {
		return nil, err
	}
	if l.Res, err = config.DecodeResource(resData); err != nil {
		return nil, err
	}
	if o.trigger != "" {
		l.Sim.Trigger = o.trigger
	}
	if o.targetAcceptance != nil {
		l.Sim.TargetAcceptance = *o.targetAcceptance
	}
	if o.windowEvents != 0 {
		l.Sim.WindowEvents = o.windowEvents
	}
	if o.preemptNotice >= 0 {
		l.Res.PreemptNoticeSec = o.preemptNotice
	}
	if o.noChaos {
		l.Res.Chaos = nil
	}
	// checkpoint_every without a path is rejected, so the period only
	// rides along with -checkpoint.
	if o.ckptPath != "" {
		l.Checkpoint, l.CheckpointEvery = o.ckptPath, o.ckptEvery
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return l, nil
}

// run executes one simulation through the same serve.Prepare path a
// repexd launch takes and prints the report to stdout. It returns the
// final (on error: partial, possibly nil) report.
func run(ctx context.Context, o options, stdout io.Writer) (*core.Report, error) {
	l, err := o.launch()
	if err != nil {
		return nil, err
	}
	listen := o.listen
	if listen == "" && l.Sim.Serve != nil {
		listen = l.Sim.Serve.Listen
	}
	r, err := serve.Prepare(l, serve.Attach{Server: listen != "", TraceFile: o.tracePath != ""})
	if err != nil {
		return nil, err
	}
	spec := r.Spec()
	if spec.Resume != nil {
		fmt.Fprintf(stdout, "resuming %q from snapshot at exchange event %d\n", spec.Name, spec.Resume.Events)
	}
	// window_events parameterizes the feedback controller and the
	// collector's rolling statistics; with neither in play it is dead
	// configuration worth flagging (target_acceptance on a non-feedback
	// trigger is rejected outright by the config layer).
	if l.Sim.WindowEvents != 0 && spec.TriggerName() != "feedback" &&
		listen == "" && o.ckptPath == "" {
		slog.Warn("window_events is set but nothing consumes it (no feedback trigger, no -listen, no -checkpoint)")
	}
	if o.tracePath != "" {
		defer writeTrace(o.tracePath, spec.Tracer)
	}
	if listen != "" {
		server := r.Server()
		if l.Sim.Serve != nil && l.Sim.Serve.Pprof {
			server.EnablePprof()
		}
		addr, err := server.Start(listen)
		if err != nil {
			return nil, err
		}
		defer server.Close()
		fmt.Fprintf(stdout, "status server listening on http://%s (/status /stats /metrics /healthz /trace)\n", addr)
	}

	report, err := r.Execute(ctx)
	if errors.Is(err, core.ErrRunCancelled) {
		if report != nil {
			fmt.Fprint(stdout, report.String())
		}
		if o.ckptPath != "" {
			fmt.Fprintf(stdout, "cancelled; resume with -resume %s\n", o.ckptPath)
		}
		return report, err
	}
	if err != nil {
		// A failed run must exit non-zero promptly even with a listener
		// active — unattended invocations (cron, CI) would otherwise
		// hang on a signal that never comes.
		return report, err
	}
	printReport(stdout, r, report)
	if listen != "" {
		fmt.Fprintln(stdout, "run finished; still serving — interrupt (Ctrl-C) to exit")
		<-ctx.Done()
	}
	return report, nil
}

// writeTrace exports the flight recorder's span timeline as Chrome
// trace-event JSON.
func writeTrace(path string, tracer *trace.Recorder) {
	data, err := tracer.ExportJSON()
	if err == nil {
		err = ckpt.WriteAtomic(path, data)
	}
	if err != nil {
		slog.Error("writing trace", "path", path, "error", err)
		return
	}
	slog.Info("trace written", "path", path,
		"spans", tracer.Recorded(), "dropped", tracer.Dropped())
}

// printReport writes the completed run's summary: the report, the Eq. 1
// decomposition, per-dimension costs, mixing statistics, feedback
// controller state and applied ladder refits.
func printReport(w io.Writer, r *serve.Run, report *core.Report) {
	spec := r.Spec()
	fmt.Fprint(w, report.String())
	d := report.Decompose()
	fmt.Fprintf(w, "Eq.1 decomposition per cycle: T_MD=%.1fs T_EX=%.1fs T_data=%.2fs T_RepEx=%.2fs T_RP=%.2fs\n",
		d.TMD, d.TEX, d.TData, d.TRepEx, d.TRP)
	for dim := range spec.Dims {
		tmd, tex := report.DimDecompose(dim)
		fmt.Fprintf(w, "  dim %d (%s): MD %.1fs, exchange %.1fs, acceptance %.1f%%\n",
			dim, spec.Dims[dim].Type, tmd, tex, 100*report.AcceptanceRatioByDim(dim))
	}
	if col := r.Collector(); col != nil {
		stats := col.Snapshot()
		fmt.Fprintf(w, "mixing: %d round trips (mean %.1f events), %.0f%% of replicas traversed the full ladder\n",
			stats.RoundTrips, stats.MeanRoundTripEvents, 100*stats.FullTraversalFraction)
		for d, pairs := range stats.AcceptanceWindow {
			var attempted uint64
			for _, p := range pairs {
				attempted += p.Attempted
			}
			// A dimension with no buffered outcomes (single window, or
			// no attempts yet) has no ratio — 0.0% would read as
			// collapsed acceptance.
			if attempted == 0 {
				continue
			}
			fmt.Fprintf(w, "  dim %d rolling acceptance (last <=%d outcomes/pair): %.1f%%\n",
				d, stats.WindowEvents, 100*analysis.WeightedRatio(pairs))
		}
		if stats.BusDropped > 0 {
			slog.Warn("collector lost events to ring overflow; statistics are partial",
				"dropped", stats.BusDropped)
		}
	}
	st := r.Status()
	for _, ds := range st.Feedback {
		fmt.Fprintf(w, "  feedback dim %d: target %.2f, measured %.2f over %d outcomes, window %.1fs, min-ready %d\n",
			ds.Dim, ds.Target, ds.Measured, ds.Outcomes, ds.Window, ds.MinReady)
		if ds.Saturated {
			fmt.Fprintf(w, "    SATURATED: target unreachable at the window clamp — revisit the dim-%d ladder spacing\n", ds.Dim)
		}
	}
	if st.Respace != nil {
		for _, rec := range st.Respace.History {
			fmt.Fprintf(w, "  RESPACED dim %d (refit %d) at event %d: %s -> %s\n",
				rec.Dim, rec.Refit, rec.Event, fmtLadder(rec.Old), fmtLadder(rec.New))
		}
	}
}

// fmtLadder renders a value ladder compactly for the final summary,
// e.g. "[273 278.5 … 373]".
func fmtLadder(values []float64) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = strconv.FormatFloat(v, 'g', 6, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
