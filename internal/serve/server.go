// Package serve exposes a running REMD simulation over HTTP: run state,
// online exchange statistics and Prometheus metrics. It reads only from
// thread-safe sources (an analysis.Collector and a caller-supplied
// status function), so serving live traffic never perturbs the
// simulation — the dispatcher publishes to the event bus without
// blocking, and the collector syncs on demand.
//
// Endpoints:
//
//	GET /status   JSON run state (trigger, cycles, faults, bus counters,
//	              per-dimension feedback-controller state when the run
//	              executes under acceptance control)
//	GET /stats    JSON analysis.Stats (acceptance ratios, round trips,
//	              mixing, overhead histograms)
//	GET /metrics  Prometheus text exposition (version 0.0.4)
//	GET /healthz  liveness probe: 200 with a one-line state summary
//	GET /trace    Chrome trace-event JSON of the attached flight
//	              recorder's current span window (404 when the run has
//	              no recorder); load in Perfetto or chrome://tracing
//
// EnablePprof additionally mounts net/http/pprof under /debug/pprof/.
// It is opt-in: profile endpoints can run CPU-heavy collection and leak
// binary layout details, so they stay off unless the operator asks.
//
// Feedback-trigger runs additionally export the repex_feedback_*
// gauge family — per-dimension target, measured rolling acceptance,
// controlled window, effective MinReady, integral term, and the
// repex_feedback_saturated{dim} ladder-spacing diagnostic (1 while a
// dimension's set point is unreachable at the window clamp).
package serve

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/trace"
)

// RunStatus is the /status payload.
type RunStatus struct {
	// ID is the registry-assigned run identifier; empty for the
	// single-run server of cmd/repex.
	ID      string `json:"id,omitempty"`
	Name    string `json:"name"`
	Engine  string `json:"engine"`
	Trigger string `json:"trigger"`
	// State is "pending", "running", "completed", "failed" or
	// "cancelled" (core.RunState names).
	State    string `json:"state"`
	Replicas int    `json:"replicas"`
	Cores    int    `json:"cores"`
	// CyclesTarget is the configured cycle budget.
	CyclesTarget int `json:"cycles_target"`
	// ExchangeWorkers and HistoryTail echo the run's scaling
	// configuration: the exchange-phase worker-pool bound (0 =
	// GOMAXPROCS-sized) and the retained slot-history rows (0 =
	// unbounded).
	ExchangeWorkers int `json:"exchange_workers"`
	HistoryTail     int `json:"history_tail"`
	// ExchangeEvents and MDSegments mirror the collector's counters.
	ExchangeEvents int `json:"exchange_events"`
	MDSegments     int `json:"md_segments"`
	// Faults counts fault-handling actions by kind (relaunch,
	// resource-lost, drop).
	Faults map[string]uint64 `json:"faults"`
	// BusPublished/BusDropped are event-bus delivery counters.
	BusPublished uint64 `json:"bus_published"`
	BusDropped   uint64 `json:"bus_dropped"`
	// Feedback is the per-dimension controller state of a feedback
	// trigger run (nil for other policies): targets, measured rolling
	// acceptance, window/MinReady actuators and the ladder-spacing
	// saturation diagnostic.
	Feedback []core.FeedbackDimStatus `json:"feedback,omitempty"`
	// Respace is the online ladder-respacing state of a run that enables
	// it (nil otherwise): configuration, per-dimension refit counts, the
	// current window values and the applied refit history.
	Respace *RespaceStatus `json:"respace,omitempty"`
	// TraceCapacity, TraceSpans and TraceDropped describe the attached
	// flight recorder: ring size, total spans recorded and spans evicted
	// by ring overflow. All zero when no recorder is attached.
	TraceCapacity int    `json:"trace_capacity,omitempty"`
	TraceSpans    uint64 `json:"trace_spans,omitempty"`
	TraceDropped  uint64 `json:"trace_dropped,omitempty"`
	// Error carries the failure message when State is "failed".
	Error string `json:"error,omitempty"`
}

// RespaceStatus surfaces a run's online ladder-respacing state on
// /status and feeds the repex_respacings_total / repex_ladder_value
// metric families.
type RespaceStatus struct {
	// Enabled echoes the configuration; AfterSteps and MaxRefits are
	// the resolved thresholds (0 = built-in default).
	Enabled    bool `json:"enabled"`
	AfterSteps int  `json:"after_steps,omitempty"`
	MaxRefits  int  `json:"max_refits,omitempty"`
	// Refits counts applied refits per dimension.
	Refits []int `json:"refits"`
	// Ladders holds every dimension's current window values.
	Ladders [][]float64 `json:"ladders,omitempty"`
	// History is the applied refit history in order.
	History []core.RespaceRecord `json:"history,omitempty"`
}

// Server serves the observability endpoints for one run.
type Server struct {
	col    *analysis.Collector
	status func() RunStatus
	// runLabel, when set, stamps every metric line with a run="<id>"
	// label so scrapes from many runs can federate without colliding.
	runLabel string
	// tracer is the run's flight recorder; nil disables /trace and the
	// repex_trace_* metrics.
	tracer *trace.Recorder
	mux    *http.ServeMux
	lis    net.Listener
	srv    *http.Server
}

// New builds a server over a collector and a status source. Either may
// be nil: a nil collector serves empty statistics, a nil status function
// an empty status.
func New(col *analysis.Collector, status func() RunStatus) *Server {
	s := &Server{col: col, status: status, mux: http.NewServeMux()}
	s.mux.HandleFunc("/status", s.handleStatus)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/trace", s.handleTrace)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Handler exposes the route table (used by tests and embedders).
func (s *Server) Handler() http.Handler { return s.mux }

// SetRunLabel makes every /metrics line carry run="<id>". The registry
// sets it so per-run scrapes of runs sharing a dimension layout stay
// distinguishable after federation.
func (s *Server) SetRunLabel(id string) { s.runLabel = id }

// SetTracer attaches the run's flight recorder, enabling GET /trace and
// the repex_trace_* metric counters. Call before Start.
func (s *Server) SetTracer(rec *trace.Recorder) { s.tracer = rec }

// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/.
// Opt-in only (see the package comment's security note); call before
// Start.
func (s *Server) EnablePprof() { mountPprof(s.mux) }

// mountPprof registers the pprof handlers on a non-default mux.
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Start listens on addr (host:port; port 0 picks a free one) and serves
// in a background goroutine. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: %v", err)
	}
	s.lis = lis
	// The port stays open for the whole (possibly multi-day) run, so
	// bound header reads and idle keep-alives: a client trickling bytes
	// must not pin goroutines and fds on the monitoring port.
	s.srv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = s.srv.Serve(lis) }()
	return lis.Addr().String(), nil
}

// Close stops the listener.
func (s *Server) Close() error {
	if s.srv != nil {
		return s.srv.Close()
	}
	return nil
}

// snapshot takes the single per-request collector snapshot (empty when
// no collector is attached). /status and /metrics never render the
// per-replica traces, so they take the lite variant.
func (s *Server) snapshot(withTraces bool) analysis.Stats {
	if s.col == nil {
		return analysis.Stats{}
	}
	if withTraces {
		return s.col.Snapshot()
	}
	return s.col.SnapshotLite()
}

// view merges the caller's status with the counters of one collector
// snapshot, so one request observes one instant. The status is read
// first: a run that reads as terminal has published every event, so the
// snapshot taken after it is complete.
func (s *Server) view() runView {
	var st RunStatus
	if s.status != nil {
		st = s.status()
	}
	stats := s.snapshot(false)
	if st.Faults == nil {
		st.Faults = map[string]uint64{}
	}
	if s.col != nil {
		st.ExchangeEvents = stats.Events
		st.MDSegments = stats.MDSegments
		for k, v := range stats.Faults {
			st.Faults[k] = v
		}
		st.BusDropped = stats.BusDropped
	}
	if s.tracer != nil {
		st.TraceCapacity = s.tracer.Capacity()
		st.TraceSpans = s.tracer.Recorded()
		st.TraceDropped = s.tracer.Dropped()
	}
	return runView{run: s.runLabel, stats: stats, st: st}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.view().st)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.snapshot(true))
}

// handleTrace streams the flight recorder's current span window as
// Chrome trace-event JSON. Snapshotting the ring is cheap and
// lock-bounded, so polling /trace mid-run cannot stall the dispatcher.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		http.Error(w, "no flight recorder attached to this run", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = trace.WriteJSON(w, s.tracer.Snapshot())
}

// handleHealthz is the liveness probe: always 200 once the server
// answers, with a minimal state summary for probes that read bodies.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.view().st
	writeJSON(w, map[string]any{
		"ok":              true,
		"state":           st.State,
		"exchange_events": st.ExchangeEvents,
	})
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	writeMetrics(&b, []runView{s.view()})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// runView is one run's contribution to a metrics exposition: its
// collector snapshot, its status, and the value of its run label
// (empty on the single-run server, which keeps that output
// byte-identical to the pre-registry format).
type runView struct {
	run   string
	stats analysis.Stats
	st    RunStatus
}

// lbl merges the view's run label with a family's own labels (base is
// the rendered inner label list, e.g. `dim="0",pair="1"`, or empty).
func (v runView) lbl(base string) string {
	switch {
	case v.run == "" && base == "":
		return ""
	case v.run == "":
		return "{" + base + "}"
	case base == "":
		return fmt.Sprintf("{run=%q}", v.run)
	default:
		return fmt.Sprintf("{run=%q,%s}", v.run, base)
	}
}

// writeMetrics renders the Prometheus exposition of one or many runs.
// The exposition format requires every line of a metric family to form
// one group, so multi-run output interleaves runs within each family
// (never family blocks per run) — the run label keeps series from runs
// sharing a dimension layout distinct.
func writeMetrics(b *strings.Builder, views []runView) {
	counter := func(name, help string, v func(runView) uint64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, vw := range views {
			fmt.Fprintf(b, "%s%s %d\n", name, vw.lbl(""), v(vw))
		}
	}
	gauge := func(name, help string, v func(runView) float64) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, vw := range views {
			fmt.Fprintf(b, "%s%s %s\n", name, vw.lbl(""), fmtFloat(v(vw)))
		}
	}
	// family opens a HELP/TYPE block and lets the body emit labelled
	// lines for every view.
	family := func(name, help, typ string, emit func(vw runView)) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, vw := range views {
			emit(vw)
		}
	}

	gauge("repex_running", "1 while the simulation is executing.", func(vw runView) float64 {
		if vw.st.State == "running" {
			return 1
		}
		return 0
	})
	gauge("repex_replicas", "Configured replica count.",
		func(vw runView) float64 { return float64(vw.st.Replicas) })
	counter("repex_exchange_events_total", "Exchange events completed.",
		func(vw runView) uint64 { return uint64(vw.stats.Events) })
	counter("repex_md_segments_total", "MD segments finally processed.",
		func(vw runView) uint64 { return uint64(vw.stats.MDSegments) })
	counter("repex_md_failures_total", "MD segments that failed terminally.",
		func(vw runView) uint64 { return uint64(vw.stats.MDFailures) })

	family("repex_fault_events_total", "Fault-handling actions by kind.", "counter", func(vw runView) {
		kinds := make([]string, 0, len(vw.st.Faults))
		for k := range vw.st.Faults {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(b, "repex_fault_events_total%s %d\n", vw.lbl(fmt.Sprintf("kind=%q", k)), vw.st.Faults[k])
		}
	})

	family("repex_pair_attempts_total", "Exchange attempts per neighbour pair.", "counter", func(vw runView) {
		for d, pairs := range vw.stats.Acceptance {
			for i, p := range pairs {
				fmt.Fprintf(b, "repex_pair_attempts_total%s %d\n",
					vw.lbl(fmt.Sprintf("dim=\"%d\",pair=\"%d\"", d, i)), p.Attempted)
			}
		}
	})
	family("repex_pair_accepts_total", "Accepted exchanges per neighbour pair.", "counter", func(vw runView) {
		for d, pairs := range vw.stats.Acceptance {
			for i, p := range pairs {
				fmt.Fprintf(b, "repex_pair_accepts_total%s %d\n",
					vw.lbl(fmt.Sprintf("dim=\"%d\",pair=\"%d\"", d, i)), p.Accepted)
			}
		}
	})
	family("repex_pair_acceptance_ratio", "Acceptance ratio per neighbour pair.", "gauge", func(vw runView) {
		for d, pairs := range vw.stats.Acceptance {
			for i, p := range pairs {
				fmt.Fprintf(b, "repex_pair_acceptance_ratio%s %s\n",
					vw.lbl(fmt.Sprintf("dim=\"%d\",pair=\"%d\"", d, i)), fmtFloat(p.Ratio()))
			}
		}
	})

	// The single-run HELP embeds the run's configured window depth; an
	// aggregate scrape spans runs with different depths, conveyed per
	// run by repex_acceptance_window_events below.
	windowHelp := "Acceptance ratio per neighbour pair over each run's rolling window (depth in repex_acceptance_window_events)."
	if len(views) == 1 {
		windowHelp = fmt.Sprintf("Acceptance ratio per neighbour pair over the last %d outcomes.", views[0].stats.WindowEvents)
	}
	family("repex_acceptance_ratio_window", windowHelp, "gauge", func(vw runView) {
		for d, pairs := range vw.stats.AcceptanceWindow {
			for i, p := range pairs {
				// An empty window has no ratio: emitting 0 would trip
				// low-acceptance alerts on pairs that merely lack data. The
				// attempts gauge below conveys emptiness.
				if p.Attempted == 0 {
					continue
				}
				fmt.Fprintf(b, "repex_acceptance_ratio_window%s %s\n",
					vw.lbl(fmt.Sprintf("dim=\"%d\",pair=\"%d\"", d, i)), fmtFloat(p.Ratio()))
			}
		}
	})
	family("repex_acceptance_window_attempts", "Outcomes currently buffered in each pair's rolling window.", "gauge", func(vw runView) {
		for d, pairs := range vw.stats.AcceptanceWindow {
			for i, p := range pairs {
				fmt.Fprintf(b, "repex_acceptance_window_attempts%s %d\n",
					vw.lbl(fmt.Sprintf("dim=\"%d\",pair=\"%d\"", d, i)), p.Attempted)
			}
		}
	})
	gauge("repex_acceptance_window_events", "Configured rolling-window depth per pair.",
		func(vw runView) float64 { return float64(vw.stats.WindowEvents) })

	anyFeedback := false
	for _, vw := range views {
		if len(vw.st.Feedback) > 0 {
			anyFeedback = true
			break
		}
	}
	if anyFeedback {
		feedbackGauge := func(name, help string, value func(core.FeedbackDimStatus) float64) {
			family(name, help, "gauge", func(vw runView) {
				for _, f := range vw.st.Feedback {
					fmt.Fprintf(b, "%s%s %s\n", name,
						vw.lbl(fmt.Sprintf("dim=\"%d\"", f.Dim)), fmtFloat(value(f)))
				}
			})
		}
		feedbackGauge("repex_feedback_saturated",
			"1 while the dimension's controller is pinned at a window clamp with the target unreachable (ladder-spacing diagnostic).",
			func(f core.FeedbackDimStatus) float64 {
				if f.Saturated {
					return 1
				}
				return 0
			})
		feedbackGauge("repex_feedback_target", "Per-dimension acceptance set point.",
			func(f core.FeedbackDimStatus) float64 { return f.Target })
		feedbackGauge("repex_feedback_acceptance_measured",
			"Rolling acceptance the dimension's controller currently measures.",
			func(f core.FeedbackDimStatus) float64 { return f.Measured })
		feedbackGauge("repex_feedback_window_seconds", "Controlled exchange window per dimension.",
			func(f core.FeedbackDimStatus) float64 { return f.Window })
		feedbackGauge("repex_feedback_min_ready", "Effective early-fire threshold per dimension (second actuator).",
			func(f core.FeedbackDimStatus) float64 { return float64(f.MinReady) })
		feedbackGauge("repex_feedback_integral", "Accumulated acceptance error (I term) per dimension.",
			func(f core.FeedbackDimStatus) float64 { return f.Integral })
	}

	// Respace families, present only when some run enables online ladder
	// respacing (mirrors the feedback-family gating above).
	anyRespace := false
	for _, vw := range views {
		if vw.st.Respace != nil {
			anyRespace = true
			break
		}
	}
	if anyRespace {
		family("repex_respacings_total", "Online ladder re-fits applied per dimension.", "counter", func(vw runView) {
			if vw.st.Respace == nil {
				return
			}
			for d, n := range vw.st.Respace.Refits {
				fmt.Fprintf(b, "repex_respacings_total%s %d\n",
					vw.lbl(fmt.Sprintf("dim=\"%d\"", d)), n)
			}
		})
		family("repex_ladder_value", "Current window value per dimension slot (moves when a re-fit lands).", "gauge", func(vw runView) {
			if vw.st.Respace == nil {
				return
			}
			for d, vals := range vw.st.Respace.Ladders {
				for i, v := range vals {
					fmt.Fprintf(b, "repex_ladder_value%s %s\n",
						vw.lbl(fmt.Sprintf("dim=\"%d\",slot=\"%d\"", d, i)), fmtFloat(v))
				}
			}
		})
	}

	counter("repex_preemptions_total", "Pilot preemption notices received.",
		func(vw runView) uint64 { return vw.stats.Preemptions })

	// Per-pilot core gauges, present only when some run published
	// resource events (elastic runtimes); a quiet run with static pilots
	// emits no pilot-core series (mirrors the feedback-family gating).
	anyPilot := false
	for _, vw := range views {
		if len(vw.stats.PilotCores) > 0 {
			anyPilot = true
			break
		}
	}
	if anyPilot {
		family("repex_pilot_cores", "Current core count per pilot slot (0 once expired).", "gauge", func(vw runView) {
			slots := make([]int, 0, len(vw.stats.PilotCores))
			for slot := range vw.stats.PilotCores {
				slots = append(slots, slot)
			}
			sort.Ints(slots)
			for _, slot := range slots {
				fmt.Fprintf(b, "repex_pilot_cores%s %d\n",
					vw.lbl(fmt.Sprintf("pilot=\"%d\"", slot)), vw.stats.PilotCores[slot])
			}
		})
	}

	counter("repex_round_trips_total", "Completed ladder round trips over all replicas.",
		func(vw runView) uint64 { return uint64(vw.stats.RoundTrips) })
	gauge("repex_round_trip_events_mean", "Mean round-trip duration in exchange events.",
		func(vw runView) float64 { return vw.stats.MeanRoundTripEvents })
	gauge("repex_full_traversal_fraction",
		"Fraction of replicas that visited both ladder endpoints.",
		func(vw runView) float64 { return vw.stats.FullTraversalFraction })

	histogram(b, "repex_md_exec_seconds", "MD segment execution time.", views,
		func(vw runView) analysis.Histogram { return vw.stats.MDExec })
	histogram(b, "repex_exchange_wall_seconds", "Exchange phase wall time.", views,
		func(vw runView) analysis.Histogram { return vw.stats.ExchangeOverhead })

	counter("repex_bus_published_total", "Events published on the bus.",
		func(vw runView) uint64 { return vw.st.BusPublished })
	counter("repex_bus_dropped_total", "Events the collector lost to ring overflow.",
		func(vw runView) uint64 { return vw.stats.BusDropped })

	// Flight-recorder counters, present only when some run has a
	// recorder attached (mirrors the feedback-family gating above).
	anyTrace := false
	for _, vw := range views {
		if vw.st.TraceCapacity > 0 {
			anyTrace = true
			break
		}
	}
	if anyTrace {
		counter("repex_trace_spans_total", "Spans recorded by the flight recorder.",
			func(vw runView) uint64 { return vw.st.TraceSpans })
		counter("repex_trace_dropped_total", "Spans evicted from the flight-recorder ring.",
			func(vw runView) uint64 { return vw.st.TraceDropped })
	}
}

// histogram renders one Prometheus histogram family: per view, the
// cumulative buckets with an le label, then _sum and _count.
func histogram(b *strings.Builder, name, help string, views []runView, h func(runView) analysis.Histogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, vw := range views {
		hist := h(vw)
		cum := uint64(0)
		for i, bound := range hist.Bounds {
			if i < len(hist.Counts) {
				cum += hist.Counts[i]
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", name, vw.lbl(fmt.Sprintf("le=%q", fmtFloat(bound))), cum)
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, vw.lbl(`le="+Inf"`), hist.Count)
		fmt.Fprintf(b, "%s_sum%s %s\n", name, vw.lbl(""), fmtFloat(hist.Sum))
		fmt.Fprintf(b, "%s_count%s %d\n", name, vw.lbl(""), hist.Count)
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
