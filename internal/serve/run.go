package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"

	"repro/internal/analysis"
	"repro/internal/ckpt"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/respace"
	"repro/internal/runner"
	"repro/internal/trace"
)

// Run is one prepared simulation: its spec, its own observers (event
// bus, collector, flight recorder, checkpoint hook) and the Server that
// reads them. Runs never share mutable state, so the registry executes
// many of them side by side in one process, and cmd/repex executes
// exactly one.
type Run struct {
	// ID is the registry-assigned identifier ("r1", "r2", ...); empty
	// for a run executed outside a registry.
	ID string

	spec   *core.Spec
	col    *analysis.Collector
	srv    *Server
	engine string
	cores  int
	params runner.Params
	// log receives the run's diagnostics; the registry labels it with
	// the run ID.
	log    *slog.Logger
	cancel context.CancelFunc
	// done closes when Execute has finished and report/err carry the
	// outcome.
	done chan struct{}
	// release, when set, returns the run's core-pool reservation.
	// Execute calls it before the run turns terminal, so a run that
	// reads as finished never still holds pool cores.
	release func()

	mu     sync.Mutex
	state  core.RunState
	report *core.Report
	err    error
	// sim is the constructed simulation once execution reaches OnStart;
	// status surfaces read its respace accessors (which are themselves
	// mutex-guarded against the dispatcher).
	sim *core.Simulation
}

// Attach names who reads a prepared run besides its final report.
// Prepare attaches only the observers those readers need: the bus,
// collector and recorder cost memory and time on every event.
type Attach struct {
	// Server is set when a Server reads the run's status, statistics,
	// metrics and trace (every repexd run; cmd/repex with -listen).
	Server bool
	// TraceFile is set when the span timeline is exported at exit
	// (cmd/repex -trace).
	TraceFile bool
	// TraceEvents is the flight-recorder capacity (0: the default).
	TraceEvents int
}

// Prepare turns a validated launch into a run ready to Execute. It does
// all the fallible setup — spec construction, resource resolution,
// checkpoint load and collector restore — so a caller that rejects the
// run afterwards has committed nothing. The bus and collector attach
// when a Server reads the run, a checkpoint path is set, or respacing
// needs measured acceptance; the flight recorder attaches when a Server
// or a trace file reads it.
func Prepare(l *config.Launch, a Attach) (*Run, error) {
	spec, err := l.Sim.ToSpec()
	if err != nil {
		return nil, err
	}
	machine, ps, err := l.Res.Resolve()
	if err != nil {
		return nil, err
	}
	if l.Resume != "" {
		data, err := ckpt.Load(l.Resume)
		if err != nil {
			return nil, err
		}
		if spec.Resume, err = core.DecodeSnapshot(data); err != nil {
			return nil, fmt.Errorf("serve: resume checkpoint %s: %v", l.Resume, err)
		}
	}
	r := &Run{
		spec:   spec,
		engine: l.Sim.Engine,
		cores:  ps.Cores,
		log:    slog.Default(),
		done:   make(chan struct{}),
		state:  core.RunPending,
	}
	if a.Server || l.Checkpoint != "" || spec.Respace != nil {
		spec.Bus = core.NewBus()
		colCfg := analysis.ConfigFromSpec(spec)
		colCfg.WindowEvents = l.Sim.WindowEvents
		r.col = analysis.New(colCfg)
		r.col.Attach(spec.Bus, analysis.RunBuffer(spec))
		// Carry the statistics across a resume; a checkpoint written
		// without a collector seeds the event clock and slot baseline
		// instead, so walks are not measured against the fresh-run
		// identity.
		if sn := spec.Resume; sn != nil {
			if len(sn.Analysis) > 0 {
				err = r.col.Restore(sn.Analysis)
			} else {
				r.log.Warn("checkpoint carries no analysis state; statistics cover the resumed portion only")
				err = r.col.SeedResume(sn)
			}
			if err != nil {
				return nil, fmt.Errorf("serve: resume checkpoint %s: %v", l.Resume, err)
			}
		}
	}
	// The respace planner reads this run's collector; ToSpec left the
	// field nil because the collector did not exist yet.
	if spec.Respace != nil {
		spec.Respace.Planner = respace.NewPlanner(r.col)
	}
	// Recording is bounded and touches neither the RNG nor the virtual
	// clock, so a traced run is bit-identical to an untraced one.
	if a.Server || a.TraceFile {
		spec.Tracer = trace.New(a.TraceEvents)
	}
	r.srv = New(r.col, r.baseStatus)
	r.srv.SetTracer(spec.Tracer)
	if l.Checkpoint != "" {
		// With CheckpointEvery 0 the dispatcher writes no periodic
		// snapshots, but a cancellation still delivers its final
		// boundary snapshot to the hook. A checkpoint path always
		// attaches the collector, whose state rides along.
		path := l.Checkpoint
		spec.SnapshotEvery = l.CheckpointEvery
		spec.OnSnapshot = func(sn *core.Snapshot) {
			if data, err := r.col.EncodeState(); err == nil {
				sn.Analysis = data
			} else {
				r.log.Error("encoding analysis state", "error", err)
			}
			data, err := sn.Encode()
			if err == nil {
				err = ckpt.WriteAtomic(path, data)
			}
			if err != nil {
				r.log.Error("checkpoint write failed", "path", path, "error", err)
			}
		}
	}
	atoms, engine := l.Sim.Atoms, l.Sim.Engine
	r.params = runner.Params{
		Spec:          spec,
		Cluster:       machine,
		PilotCores:    ps.Cores,
		PilotWalltime: ps.Walltime,
		Pilots:        ps.Pilots,
		Chaos:         ps.Chaos,
		NewEngine: func(seed int64) core.Engine {
			return engines.NewNamedVirtual(engine, atoms, seed)
		},
		Seed:    spec.Seed,
		OnStart: r.start,
	}
	r.params.Context, r.cancel = context.WithCancel(context.Background())
	return r, nil
}

// Execute runs the prepared simulation in the caller's goroutine until
// it completes, fails or is cancelled — through ctx or Cancel — and
// records the terminal state. On error the report, when non-nil, is the
// partial report of the failed or cancelled run. Call it once.
func (r *Run) Execute(ctx context.Context) (*core.Report, error) {
	// AfterFunc cancels from its own goroutine; an already-done ctx
	// cancels here, so the run deterministically stops before its first
	// exchange event.
	if ctx.Err() != nil {
		r.cancel()
	}
	stop := context.AfterFunc(ctx, r.cancel)
	defer stop()
	report, err := runner.Run(r.params)
	if r.release != nil {
		r.release()
	}
	r.mu.Lock()
	r.report, r.err = report, err
	switch {
	case err == nil:
		r.state = core.RunCompleted
	case errors.Is(err, core.ErrRunCancelled):
		r.state = core.RunCancelled
	default:
		r.state = core.RunFailed
	}
	r.mu.Unlock()
	close(r.done)
	return report, err
}

// start is the executor's OnStart hook: the replica set exists.
func (r *Run) start(sim *core.Simulation) {
	r.mu.Lock()
	r.state = core.RunRunning
	r.sim = sim
	r.mu.Unlock()
}

// State returns the run's lifecycle state.
func (r *Run) State() core.RunState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Done closes when the run reaches a terminal state.
func (r *Run) Done() <-chan struct{} { return r.done }

// Result returns the run's final report and error; the report may be
// the partial report of a failed or cancelled run, and both are nil/nil
// until Done closes.
func (r *Run) Result() (*core.Report, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.report, r.err
}

// Cancel requests cancellation; the dispatcher honours it at the next
// fired exchange boundary (idempotent, safe before and after Execute).
func (r *Run) Cancel() { r.cancel() }

// Spec returns the run's simulation spec. Treat it as read-only.
func (r *Run) Spec() *core.Spec { return r.spec }

// Collector returns the run's collector (nil when none is attached).
func (r *Run) Collector() *analysis.Collector { return r.col }

// Server returns the run's own status server, unstarted: repexd routes
// /runs/{id}/... to it, cmd/repex -listen starts it.
func (r *Run) Server() *Server { return r.srv }

// baseStatus is the run's status-source for its Server: the static
// configuration plus the lifecycle state (the Server merges in the
// collector's live counters).
func (r *Run) baseStatus() RunStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := RunStatus{
		ID:              r.ID,
		Name:            r.spec.Name,
		Engine:          r.engine,
		Trigger:         r.spec.TriggerName(),
		State:           r.state.String(),
		Replicas:        r.spec.Replicas(),
		Cores:           r.cores,
		CyclesTarget:    r.spec.Cycles,
		ExchangeWorkers: r.spec.ExchangeWorkers,
		HistoryTail:     r.spec.HistoryTail,
		BusPublished:    r.spec.Bus.Published(),
	}
	if fb, ok := r.spec.Trigger.(*core.FeedbackTrigger); ok {
		st.Feedback = fb.ControllerStatus()
	}
	if rs := r.spec.Respace; rs != nil {
		respaceSt := &RespaceStatus{
			Enabled:    true,
			AfterSteps: rs.AfterSteps,
			MaxRefits:  rs.MaxRefits,
		}
		if r.sim != nil {
			respaceSt.Refits = r.sim.RefitCounts()
			respaceSt.Ladders = r.sim.LadderValues()
			respaceSt.History = r.sim.RespaceHistory()
		}
		st.Respace = respaceSt
	}
	if r.err != nil && !errors.Is(r.err, core.ErrRunCancelled) {
		st.Error = r.err.Error()
	}
	return st
}

// Status merges the base status with the collector's counters, the
// same view /runs/{id}/status serves.
func (r *Run) Status() RunStatus { return r.srv.view().st }
