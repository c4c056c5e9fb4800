package main

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/md"
	"repro/internal/task"
)

// ledger accumulates the traced run's per-layer timings and counts.
// The timing decorators below feed it from outside the program: they
// wrap the interfaces core.New consumes (task.Runtime, core.Engine) and
// the closures a run hands across layer boundaries (task.Spec.Run,
// Spec.OnSnapshot). Runtime and engine calls arrive on the single
// orchestrator goroutine, but Run closures execute on localexec workers
// and CrossEnergy may run on core's exchange shards, so every field is
// atomic.
type ledger struct {
	submitNs, submitCalls atomic.Int64
	// awaitNs covers every runtime call that blocks the orchestrator
	// while the runtime makes progress: Await, AwaitAll, AwaitNext,
	// SleepUntil and Overhead.
	awaitNs, awaitCalls atomic.Int64
	// runNs and runCalls cover task.Spec.Run closures (real MD).
	runNs, runCalls atomic.Int64
	mdtaskNs        atomic.Int64
	energyNs        atomic.Int64
	energyCalls     atomic.Int64
	// hookNs is the whole OnSnapshot callback, the dispatcher stall the
	// benchmark's checkpoint and scrape work imposes.
	hookNs atomic.Int64
}

func since(t time.Time) int64 { return int64(time.Since(t)) }

// timedRuntime times a task.Runtime's submit and await calls and wraps
// each submitted Run closure. Handles pass through untouched.
type timedRuntime struct {
	inner task.Runtime
	l     *ledger
}

// reportingRuntime is a timedRuntime over a runtime that buffers
// resource events; core type-asserts task.ResourceReporter on the
// runtime it is given, so the decorator must keep the method visible.
type reportingRuntime struct {
	timedRuntime
	rr task.ResourceReporter
}

func (r *reportingRuntime) DrainResourceEvents() []task.ResourceEvent {
	return r.rr.DrainResourceEvents()
}

// wrapRuntime returns the timing decorator for rt, preserving its
// optional interfaces.
func wrapRuntime(rt task.Runtime, l *ledger) task.Runtime {
	t := timedRuntime{inner: rt, l: l}
	if rr, ok := rt.(task.ResourceReporter); ok {
		return &reportingRuntime{timedRuntime: t, rr: rr}
	}
	return &t
}

func (r *timedRuntime) Now() float64 { return r.inner.Now() }
func (r *timedRuntime) Cores() int   { return r.inner.Cores() }

func (r *timedRuntime) wrapRun(s *task.Spec) *task.Spec {
	if run := s.Run; run != nil {
		l := r.l
		s.Run = func() error {
			t := time.Now()
			err := run()
			l.runNs.Add(since(t))
			l.runCalls.Add(1)
			return err
		}
	}
	return s
}

func (r *timedRuntime) Submit(s *task.Spec) task.Handle {
	t := time.Now()
	h := r.inner.Submit(r.wrapRun(s))
	r.l.submitNs.Add(since(t))
	r.l.submitCalls.Add(1)
	return h
}

func (r *timedRuntime) SubmitWatched(s *task.Spec) task.Handle {
	t := time.Now()
	h := r.inner.SubmitWatched(r.wrapRun(s))
	r.l.submitNs.Add(since(t))
	r.l.submitCalls.Add(1)
	return h
}

func (r *timedRuntime) waited(t time.Time) {
	r.l.awaitNs.Add(since(t))
	r.l.awaitCalls.Add(1)
}

func (r *timedRuntime) AwaitNext(deadline float64) []task.Handle {
	defer r.waited(time.Now())
	return r.inner.AwaitNext(deadline)
}

func (r *timedRuntime) Await(h task.Handle) task.Result {
	defer r.waited(time.Now())
	return r.inner.Await(h)
}

func (r *timedRuntime) AwaitAll(hs []task.Handle) []task.Result {
	defer r.waited(time.Now())
	return r.inner.AwaitAll(hs)
}

func (r *timedRuntime) Overhead(d float64) {
	defer r.waited(time.Now())
	r.inner.Overhead(d)
}

func (r *timedRuntime) SleepUntil(t float64) {
	defer r.waited(time.Now())
	r.inner.SleepUntil(t)
}

// timedEngine times the engine calls core makes on the orchestrator
// path: MD task construction and energy evaluations.
type timedEngine struct {
	core.Engine
	l *ledger
}

// replayableEngine is a timedEngine over an engine whose RNG state core
// captures in snapshots (core.ReplayableEngine); hiding the methods
// would change what a checkpoint records.
type replayableEngine struct {
	timedEngine
	re core.ReplayableEngine
}

func (e *replayableEngine) RNGDraws() int64   { return e.re.RNGDraws() }
func (e *replayableEngine) ReplayRNG(n int64) { e.re.ReplayRNG(n) }

// wrapEngine returns the timing decorator for eng, preserving its
// optional interfaces.
func wrapEngine(eng core.Engine, l *ledger) core.Engine {
	t := timedEngine{Engine: eng, l: l}
	if re, ok := eng.(core.ReplayableEngine); ok {
		return &replayableEngine{timedEngine: t, re: re}
	}
	return &t
}

func (e *timedEngine) MDTask(r *core.Replica, s *core.Spec, dim int) *task.Spec {
	t := time.Now()
	ts := e.Engine.MDTask(r, s, dim)
	e.l.mdtaskNs.Add(since(t))
	return ts
}

func (e *timedEngine) OwnEnergy(r *core.Replica) float64 {
	t := time.Now()
	v := e.Engine.OwnEnergy(r)
	e.l.energyNs.Add(since(t))
	e.l.energyCalls.Add(1)
	return v
}

func (e *timedEngine) CrossEnergy(r *core.Replica, under md.Params) float64 {
	t := time.Now()
	v := e.Engine.CrossEnergy(r, under)
	e.l.energyNs.Add(since(t))
	e.l.energyCalls.Add(1)
	return v
}

// wrapHook times a Spec.OnSnapshot callback as a whole.
func wrapHook(hook func(*core.Snapshot), l *ledger) func(*core.Snapshot) {
	if hook == nil {
		return nil
	}
	return func(sn *core.Snapshot) {
		t := time.Now()
		hook(sn)
		l.hookNs.Add(since(t))
	}
}
