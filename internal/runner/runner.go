// Package runner executes one simulation on the virtual cluster: it
// builds the discrete-event environment, the machine model and the
// pilot runtime, drives the resource chaos plan and runs the core
// dispatcher to completion. The figure harness (internal/bench), the
// public RunVirtual, and both front ends through serve.Prepare share
// this one executor.
package runner

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pilot"
	"repro/internal/sim"
)

// Params describes one simulation execution on the virtual cluster.
type Params struct {
	Spec       *core.Spec
	Cluster    cluster.Config
	PilotCores int
	// PilotWalltime bounds each pilot's life in virtual seconds; when a
	// pilot expires, its units fail, the scheduler resubmits them and
	// the runtime launches a replacement pilot (failover). Zero or
	// negative means unbounded.
	PilotWalltime float64
	// Pilots splits PilotCores across this many concurrent pilots routed
	// through one MultiRuntime with failover (the multi-pilot execution
	// the paper's flexible resource mapping describes). Zero or one
	// runs a single failover pilot: a one-slot MultiRuntime.
	Pilots int
	// Chaos, when non-empty, scripts resource faults (node loss,
	// preemption, resize) against the run's pilots at fixed virtual
	// times; see pilot.ChaosPlan. The plan's slot indices address the
	// MultiRuntime routing slots (only slot 0 for a single pilot),
	// hitting whichever pilot occupies the slot at fire time.
	Chaos *pilot.ChaosPlan
	// NewEngine constructs the engine adapter (called once).
	NewEngine func(seed int64) core.Engine
	// Seed for cluster jitter and fault draws.
	Seed int64
	// Context cancels the run between exchange events (nil means run to
	// completion); see core.Simulation.RunContext.
	Context context.Context
	// OnStart, when set, receives the constructed simulation right
	// before it runs (serve.Run uses it to flip its status to "running"
	// once the replica set exists).
	OnStart func(*core.Simulation)
}

// Run executes a simulation to completion in virtual time. On a run
// error the returned report, when non-nil, is the partial report of the
// failed or cancelled run — callers must check the error first.
func Run(p Params) (*core.Report, error) {
	env := sim.NewEnv()
	cl, err := cluster.New(env, p.Cluster, p.Seed+1)
	if err != nil {
		return nil, err
	}
	eng := p.NewEngine(p.Seed + 2)
	var report *core.Report
	var runErr error
	env.Go("emm", func(proc *sim.Proc) {
		rt, err := newRuntime(cl, p, proc)
		if err != nil {
			runErr = err
			return
		}
		if !p.Chaos.Empty() {
			if err := p.Chaos.Validate(); err != nil {
				runErr = err
				return
			}
			p.Chaos.Drive(env, rt.PilotAt)
		}
		simu, err := core.New(p.Spec, eng, rt)
		if err != nil {
			runErr = err
			return
		}
		if p.OnStart != nil {
			p.OnStart(simu)
		}
		report, runErr = simu.RunContext(p.Context)
	})
	env.Run()
	if runErr != nil {
		return report, runErr
	}
	if report == nil {
		return nil, fmt.Errorf("runner: simulation %q produced no report", p.Spec.Name)
	}
	return report, nil
}

// newRuntime builds the run's task runtime: PilotCores split across
// max(1, Pilots) pilots behind one failover MultiRuntime (uneven splits
// give the first pilots one core more).
func newRuntime(cl *cluster.Cluster, p Params, proc *sim.Proc) (*pilot.MultiRuntime, error) {
	n := max(1, p.Pilots)
	per, extra := p.PilotCores/n, p.PilotCores%n
	if per < 1 {
		return nil, fmt.Errorf("runner: %d cores cannot cover %d pilots", p.PilotCores, n)
	}
	pilots := make([]*pilot.Pilot, n)
	for i := range pilots {
		cores := per
		if i < extra {
			cores++
		}
		pl, err := pilot.Launch(cl, pilot.Description{Cores: cores, Walltime: p.PilotWalltime})
		if err != nil {
			return nil, err
		}
		pilots[i] = pl
	}
	mr, err := pilot.NewMultiRuntime(proc, pilots...)
	if err != nil {
		return nil, err
	}
	mr.Failover = true
	return mr, nil
}
