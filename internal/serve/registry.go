package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/pilot"
)

// ErrMaxRuns rejects a launch while the configured number of active
// (non-terminal) runs is already reached.
var ErrMaxRuns = errors.New("serve: active-run limit reached")

// ErrRunNotFound reports an unknown run id.
var ErrRunNotFound = errors.New("serve: no such run")

// Registry is the multi-run control plane behind repexd: it launches
// runs from posted configs, admits them against one process-wide core
// pool, and serves per-run and aggregate observability endpoints. Every
// run owns its bus, collector and simulation environment, so runs never
// share mutable state — only the admission pool.
type Registry struct {
	pool    *pilot.Pool
	maxRuns int
	// traceEvents is the per-run flight-recorder capacity (0: the
	// recorder default). Every run gets its own recorder, so
	// /runs/{id}/trace is always servable.
	traceEvents int
	log         *slog.Logger

	mu     sync.Mutex
	runs   map[string]*Run
	order  []*Run
	nextID int
	wg     sync.WaitGroup
	mux    *http.ServeMux
}

// NewRegistry builds a registry admitting runs against totalCores
// shared cores (0: unbounded) and at most maxRuns concurrently active
// runs (0: unbounded).
func NewRegistry(totalCores, maxRuns int) *Registry {
	g := &Registry{
		pool:    pilot.NewPool(totalCores),
		maxRuns: maxRuns,
		log:     slog.Default(),
		runs:    map[string]*Run{},
		mux:     http.NewServeMux(),
	}
	g.mux.HandleFunc("POST /runs", g.handleLaunch)
	g.mux.HandleFunc("GET /runs", g.handleList)
	g.mux.HandleFunc("GET /runs/{id}", g.perRun((*Server).handleStatus))
	g.mux.HandleFunc("DELETE /runs/{id}", g.handleCancel)
	g.mux.HandleFunc("GET /runs/{id}/status", g.perRun((*Server).handleStatus))
	g.mux.HandleFunc("GET /runs/{id}/stats", g.perRun((*Server).handleStats))
	g.mux.HandleFunc("GET /runs/{id}/metrics", g.perRun((*Server).handleMetrics))
	g.mux.HandleFunc("GET /runs/{id}/trace", g.perRun((*Server).handleTrace))
	g.mux.HandleFunc("GET /runs/{id}/events", g.handleEvents)
	g.mux.HandleFunc("GET /metrics", g.handleAggregateMetrics)
	g.mux.HandleFunc("PATCH /pool", g.handlePoolResize)
	g.mux.HandleFunc("GET /status", g.handleDaemonStatus)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	return g
}

// Handler exposes the registry's route table.
func (g *Registry) Handler() http.Handler { return g.mux }

// SetTraceEvents sets the flight-recorder capacity future launches
// attach per run (0 keeps the recorder default). Call before serving.
func (g *Registry) SetTraceEvents(n int) { g.traceEvents = n }

// SetLogger routes the registry's structured log output; the default is
// slog.Default(). Call before serving.
func (g *Registry) SetLogger(l *slog.Logger) {
	if l != nil {
		g.log = l
	}
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ on the registry
// mux. Opt-in only: profile collection is CPU-heavy and the endpoints
// expose binary layout, so keep them off unless the daemon's listener
// is trusted. Call before serving.
func (g *Registry) EnablePprof() { mountPprof(g.mux) }

// handleHealthz is the daemon liveness probe: 200 with a run-state
// summary. Every lifecycle state appears zero-filled, so probes can
// index any state count without null handling.
func (g *Registry) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	counts := map[string]int{}
	for st := core.RunPending; st <= core.RunCancelled; st++ {
		counts[st.String()] = 0
	}
	active := 0
	for _, r := range g.List() {
		st := r.State()
		counts[st.String()]++
		if !st.Terminal() {
			active++
		}
	}
	writeJSON(w, map[string]any{"ok": true, "active_runs": active, "runs": counts})
}

// Pool exposes the shared admission pool (nil when unbounded).
func (g *Registry) Pool() *pilot.Pool { return g.pool }

// Launch starts one run from a validated launch request: Prepare, then
// admission, then the run's ID, then execution on its own goroutine.
// Because Prepare does all the fallible setup, a rejected or failed
// launch never consumes pool cores. Admission errors wrap
// pilot.ErrPoolExhausted or ErrMaxRuns.
func (g *Registry) Launch(l *config.Launch) (*Run, error) {
	// The registry always serves its runs, so every run gets its own
	// bus, collector and recorder: /runs/{id}/stats, /metrics, /events
	// and /trace work for every run, and events from concurrent runs can
	// never reach another run's view.
	run, err := Prepare(l, Attach{Server: true, TraceEvents: g.traceEvents})
	if err != nil {
		return nil, err
	}

	g.mu.Lock()
	if g.maxRuns > 0 {
		active := 0
		for _, r := range g.order {
			if !r.State().Terminal() {
				active++
			}
		}
		if active >= g.maxRuns {
			g.mu.Unlock()
			return nil, fmt.Errorf("%w: %d active", ErrMaxRuns, active)
		}
	}
	if err := g.pool.Acquire(run.cores); err != nil {
		g.mu.Unlock()
		return nil, err
	}
	g.nextID++
	id := fmt.Sprintf("r%d", g.nextID)
	run.ID = id
	run.log = g.log.With("run", id)
	run.srv.SetRunLabel(id)
	run.release = func() { g.pool.Release(run.cores) }
	g.runs[id] = run
	g.order = append(g.order, run)
	g.wg.Add(1)
	g.mu.Unlock()

	g.log.Info("run launched", "run", id, "name", run.spec.Name,
		"engine", run.engine, "trigger", run.spec.TriggerName(),
		"replicas", run.spec.Replicas(), "cores", run.cores)
	go func() {
		defer g.wg.Done()
		if _, err := run.Execute(context.Background()); err != nil && !errors.Is(err, core.ErrRunCancelled) {
			g.log.Error("run failed", "run", id, "error", err)
		} else {
			g.log.Info("run finished", "run", id, "state", run.State().String())
		}
	}()
	return run, nil
}

// Get returns a run by id.
func (g *Registry) Get(id string) (*Run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	return r, ok
}

// List returns every run in launch order.
func (g *Registry) List() []*Run {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*Run(nil), g.order...)
}

// Cancel requests cancellation of one run.
func (g *Registry) Cancel(id string) error {
	r, ok := g.Get(id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrRunNotFound, id)
	}
	r.Cancel()
	return nil
}

// CancelAll requests cancellation of every non-terminal run (the
// SIGTERM drain path).
func (g *Registry) CancelAll() {
	for _, r := range g.List() {
		if !r.State().Terminal() {
			r.Cancel()
		}
	}
}

// Wait blocks until every launched run has finished, or the timeout
// elapses; it reports whether the registry fully drained.
func (g *Registry) Wait(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// DaemonStatus is the registry's GET /status payload.
type DaemonStatus struct {
	// Runs holds every run's status, in launch order.
	Runs []RunStatus `json:"runs"`
	// ActiveRuns counts non-terminal runs; MaxRuns echoes the admission
	// bound (0: unbounded).
	ActiveRuns int `json:"active_runs"`
	MaxRuns    int `json:"max_runs"`
	// PoolCoresTotal/Used describe the shared core pool (total 0:
	// unbounded, used then untracked).
	PoolCoresTotal int `json:"pool_cores_total"`
	PoolCoresUsed  int `json:"pool_cores_used"`
}

func (g *Registry) handleDaemonStatus(w http.ResponseWriter, _ *http.Request) {
	runs := g.List()
	ds := DaemonStatus{
		Runs:           make([]RunStatus, 0, len(runs)),
		MaxRuns:        g.maxRuns,
		PoolCoresTotal: g.pool.Total(),
		PoolCoresUsed:  g.pool.Used(),
	}
	for _, r := range runs {
		st := r.Status()
		if !r.State().Terminal() {
			ds.ActiveRuns++
		}
		ds.Runs = append(ds.Runs, st)
	}
	writeJSON(w, ds)
}

func (g *Registry) handleLaunch(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(io.LimitReader(req.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	l, err := config.ParseLaunch(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	run, err := g.Launch(l)
	switch {
	case err == nil:
	case errors.Is(err, pilot.ErrPoolExhausted), errors.Is(err, ErrMaxRuns):
		httpError(w, http.StatusTooManyRequests, err.Error())
		return
	default:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, run.Status())
}

func (g *Registry) handleList(w http.ResponseWriter, _ *http.Request) {
	runs := g.List()
	out := make([]RunStatus, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Status())
	}
	writeJSON(w, out)
}

func (g *Registry) handleCancel(w http.ResponseWriter, req *http.Request) {
	run, ok := g.Get(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	g.log.Info("cancellation requested", "run", run.ID)
	run.Cancel()
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, run.Status())
}

// PoolPatch is the PATCH /pool request body: the pool's new total core
// budget.
type PoolPatch struct {
	TotalCores int `json:"total_cores"`
}

// PoolStatus is the PATCH /pool response: the pool after the resize.
// Used may exceed Total right after a shrink — running runs keep their
// reservation and the pool is over-committed until they release.
type PoolStatus struct {
	TotalCores int `json:"total_cores"`
	UsedCores  int `json:"used_cores"`
}

// handlePoolResize resizes the shared admission pool while the daemon
// runs (elastic allocations: the machine grew or shrank under us).
// Admission of future launches re-checks against the new total; running
// runs are never revoked.
func (g *Registry) handlePoolResize(w http.ResponseWriter, req *http.Request) {
	if g.pool == nil {
		httpError(w, http.StatusBadRequest, "daemon runs with an unbounded pool; restart with -cores to bound it")
		return
	}
	body, err := io.ReadAll(io.LimitReader(req.Body, 1<<16))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	var p PoolPatch
	if err := json.Unmarshal(body, &p); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := g.pool.Resize(p.TotalCores); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	g.log.Info("pool resized", "total_cores", g.pool.Total(), "used_cores", g.pool.Used())
	writeJSON(w, PoolStatus{TotalCores: g.pool.Total(), UsedCores: g.pool.Used()})
}

// perRun adapts one of the per-run Server handlers to a /runs/{id}/...
// route.
func (g *Registry) perRun(h func(*Server, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		run, ok := g.Get(req.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "no such run")
			return
		}
		h(run.srv, w, req)
	}
}

// handleAggregateMetrics renders every run's series into one scrape,
// each line labelled run="<id>" so runs sharing a dimension layout
// (identical dim/pair label sets) stay distinct after federation.
func (g *Registry) handleAggregateMetrics(w http.ResponseWriter, _ *http.Request) {
	runs := g.List()
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP repexd_runs Registered runs by lifecycle state.\n# TYPE repexd_runs gauge\n")
	counts := map[core.RunState]int{}
	views := make([]runView, 0, len(runs))
	for _, r := range runs {
		counts[r.State()]++
		views = append(views, r.srv.view())
	}
	for st := core.RunPending; st <= core.RunCancelled; st++ {
		fmt.Fprintf(&b, "repexd_runs{state=%q} %d\n", st.String(), counts[st])
	}
	fmt.Fprintf(&b, "# HELP repexd_pool_cores_total Shared core-pool capacity (0: unbounded).\n# TYPE repexd_pool_cores_total gauge\nrepexd_pool_cores_total %d\n", g.pool.Total())
	fmt.Fprintf(&b, "# HELP repexd_pool_cores_used Cores admitted to active runs.\n# TYPE repexd_pool_cores_used gauge\nrepexd_pool_cores_used %d\n", g.pool.Used())
	writeMetrics(&b, views)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// handleEvents streams the run's bus as server-sent events: one "md",
// "exchange" or "fault" event per record, then a final "done" event
// carrying the terminal state. The subscription ring is bounded, so a
// slow client loses oldest events rather than slowing the run.
func (g *Registry) handleEvents(w http.ResponseWriter, req *http.Request) {
	run, ok := g.Get(req.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such run")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sub := run.spec.Bus.Subscribe(1 << 12)
	defer run.spec.Bus.Unsubscribe(sub)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ticker := time.NewTicker(25 * time.Millisecond)
	defer ticker.Stop()
	var buf []core.Event
	flush := func() {
		buf = sub.Drain(buf[:0])
		for _, ev := range buf {
			writeSSE(w, ev)
		}
		if len(buf) > 0 {
			fl.Flush()
		}
	}
	for {
		flush()
		select {
		case <-req.Context().Done():
			return
		case <-run.done:
			// The run published everything before done closed; one last
			// drain completes the stream.
			flush()
			fmt.Fprintf(w, "event: done\ndata: {\"state\":%q}\n\n", run.State().String())
			fl.Flush()
			return
		case <-ticker.C:
		}
	}
}

// writeSSE renders one bus event as a server-sent event named by its
// concrete type.
func writeSSE(w io.Writer, ev core.Event) {
	name := "event"
	switch ev.(type) {
	case core.MDEvent:
		name = "md"
	case core.ExchangeEvent:
		name = "exchange"
	case core.FaultEvent:
		name = "fault"
	case core.ResourceEvent:
		name = "resource"
	case core.RespaceEvent:
		name = "respace"
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
