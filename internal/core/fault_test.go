package core_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/md"
	"repro/internal/pilot"
	"repro/internal/sim"
	"repro/internal/task"
)

// mdCall records one MDTask preparation: which replica, for which cycle,
// under which exchange dimension.
type mdCall struct {
	replica, cycle, dim int
}

// flakyEngine is a deterministic fault-testing engine: replica 0's first
// MD segment is marked CanFail (the cluster's FailureProb=1 then kills
// exactly that task) and its relaunch runs slowDur seconds, while every
// other segment runs fastDur. All MDTask preparations are recorded in
// call order so tests can assert which dimension a relaunch was
// submitted under.
type flakyEngine struct {
	fastDur, failDur, slowDur float64
	calls                     []mdCall
}

func (e *flakyEngine) Name() string                              { return "flaky" }
func (e *flakyEngine) InitReplica(r *core.Replica, s *core.Spec) {}
func (e *flakyEngine) MDTask(r *core.Replica, s *core.Spec, dim int) *task.Spec {
	e.calls = append(e.calls, mdCall{replica: r.ID, cycle: r.Cycle, dim: dim})
	spec := &task.Spec{
		Name:      fmt.Sprintf("md-r%d-c%d", r.ID, r.Cycle),
		Kind:      task.MD,
		ReplicaID: r.ID,
		Cores:     s.CoresPerReplica,
		Duration:  e.fastDur,
	}
	if r.ID == 0 && r.Cycle == 0 {
		if e.firstAttempt(r.ID) {
			spec.Duration = e.failDur
			spec.CanFail = true // FailureProb=1 kills exactly this task
		} else {
			spec.Duration = e.slowDur // the relaunch everyone must not wait for
		}
	}
	return spec
}

// firstAttempt reports whether this is the first MDTask call for the
// replica's current segment.
func (e *flakyEngine) firstAttempt(replica int) bool {
	n := 0
	for _, c := range e.calls {
		if c.replica == replica && c.cycle == 0 {
			n++
		}
	}
	return n <= 1 // the call being prepared was already recorded
}

func (e *flakyEngine) ExchangeTask(dim, n int, s *core.Spec) *task.Spec { return nil }
func (e *flakyEngine) SinglePointTasks(dim int, g []*core.Replica, s *core.Spec) []*task.Spec {
	return nil
}
func (e *flakyEngine) OwnEnergy(r *core.Replica) float64 { return -float64(r.Slot) * 3 }
func (e *flakyEngine) CrossEnergy(r *core.Replica, under md.Params) float64 {
	return float64(len(under.Restraints))
}
func (e *flakyEngine) TorsionIndex(label string) int          { return 0 }
func (e *flakyEngine) PrepOverhead(nTasks, ndims int) float64 { return 0 }

// runVirtualEngine is runVirtual with a caller-supplied engine.
func runVirtualEngine(t *testing.T, spec *core.Spec, cfg cluster.Config, cores int, eng core.Engine) *core.Report {
	t.Helper()
	env := sim.NewEnv()
	cl := cluster.MustNew(env, cfg, spec.Seed+1)
	pl, err := pilot.Launch(cl, pilot.Description{Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	var report *core.Report
	var runErr error
	env.Go("emm", func(p *sim.Proc) {
		rt := pilot.NewRuntime(pl, p)
		simu, err := core.New(spec, eng, rt)
		if err != nil {
			runErr = err
			return
		}
		report, runErr = simu.Run()
	})
	env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return report
}

// TestRelaunchDoesNotBlockExchanges is the regression test for the
// blocking FaultRelaunch path: while replica 0's relaunched segment
// (1000 virtual seconds) is still in flight, the healthy replicas must
// keep firing exchange events. The seed implementation awaited the
// relaunch inside the dispatcher loop, so the first exchange could not
// happen before the relaunch finished (~1050s); event-driven relaunches
// fire it within the first collection round (~20s).
func TestRelaunchDoesNotBlockExchanges(t *testing.T) {
	cfg := quietCluster()
	cfg.FailureProb = 1 // kills exactly the CanFail task
	cfg.SpeedFactor = 1 // keep task durations in reference seconds
	spec := &core.Spec{
		Name:            "nonblocking",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 6)}},
		Pattern:         core.PatternAsynchronous,
		Trigger:         core.NewCountTrigger(2),
		CoresPerReplica: 1,
		StepsPerCycle:   100,
		Cycles:          2,
		FaultPolicy:     core.FaultRelaunch,
		Seed:            13,
	}
	eng := &flakyEngine{fastDur: 10, failDur: 100, slowDur: 1000}
	rep := runVirtualEngine(t, spec, cfg, 6, eng)

	if rep.Relaunches != 1 {
		t.Fatalf("relaunches %d, want 1", rep.Relaunches)
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped %d replicas, want 0 (relaunch must recover)", rep.Dropped)
	}
	if rep.ExchangeEvents < 2 {
		t.Fatalf("exchange events %d, want >= 2", rep.ExchangeEvents)
	}
	// Virtual-time ordering: the failed attempt dies at ~50s and its
	// relaunch cannot finish before 1050s. Healthy replicas (10s
	// segments) must have exchanged long before that.
	midRelaunch := 0
	for _, rec := range rep.Records {
		if rec.At < 1000 {
			midRelaunch++
		}
	}
	if midRelaunch < 2 {
		t.Fatalf("only %d exchange events fired while the relaunch was in flight (records %v)",
			midRelaunch, recordTimes(rep))
	}
	if rep.Records[0].At > 100 {
		t.Fatalf("first exchange at %v, blocked behind the relaunch", rep.Records[0].At)
	}
	// The relaunched replica still completes its budget: the run's
	// makespan covers the 1000s relaunch plus replica 0's second segment.
	if rep.Makespan() < 1000 {
		t.Fatalf("makespan %v, relaunched segment cannot have completed", rep.Makespan())
	}
}

func recordTimes(rep *core.Report) []float64 {
	out := make([]float64, len(rep.Records))
	for i, rec := range rep.Records {
		out[i] = rec.At
	}
	return out
}

// TestRelaunchUsesSubmissionDim is the regression test for the async
// dimension mismatch: a segment submitted for dimension 0 whose failure
// arrives after the dispatcher advanced to dimension 1 must be
// relaunched under dimension 0, not the current one.
func TestRelaunchUsesSubmissionDim(t *testing.T) {
	cfg := quietCluster()
	cfg.FailureProb = 1
	spec := &core.Spec{
		Name: "dim-carry",
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 3)},
			{Type: exchange.Umbrella, Values: core.UniformWindows(2), Torsion: "phi", K: core.UmbrellaK002},
		},
		Pattern:         core.PatternAsynchronous,
		Trigger:         core.NewCountTrigger(2),
		CoresPerReplica: 1,
		StepsPerCycle:   100,
		Cycles:          3,
		FaultPolicy:     core.FaultRelaunch,
		Seed:            17,
	}
	eng := &flakyEngine{fastDur: 4, failDur: 100, slowDur: 10}
	rep := runVirtualEngine(t, spec, cfg, 6, eng)
	if rep.Relaunches != 1 || rep.Dropped != 0 {
		t.Fatalf("relaunches %d dropped %d, want 1/0", rep.Relaunches, rep.Dropped)
	}

	// Locate replica 0's two preparations for its first segment: the
	// failed attempt and its relaunch.
	var seg0 []int
	for i, c := range eng.calls {
		if c.replica == 0 && c.cycle == 0 {
			seg0 = append(seg0, i)
		}
	}
	if len(seg0) != 2 {
		t.Fatalf("replica 0 segment 0 prepared %d times, want 2", len(seg0))
	}
	submitted, relaunched := eng.calls[seg0[0]], eng.calls[seg0[1]]
	if relaunched.dim != submitted.dim {
		t.Fatalf("relaunch submitted under dim %d, segment belongs to dim %d",
			relaunched.dim, submitted.dim)
	}
	// Sanity: the dispatcher had already moved past the submission
	// dimension when the failure arrived (~50s; the 4s replicas cycle
	// through both dimensions within that), so the old current-dim
	// behaviour would have mismatched here.
	advanced := false
	for _, c := range eng.calls[:seg0[1]] {
		if c.dim != submitted.dim {
			advanced = true
			break
		}
	}
	if !advanced {
		t.Fatal("test premise broken: no other dimension was submitted before the relaunch")
	}
}

// TestAsyncMDWallAccounted is the regression test for asynchronous MD
// wall accounting: non-aligned records previously left MD.Wall at zero,
// so Report.AvgMDWall silently reported 0 for window/count/adaptive
// runs.
func TestAsyncMDWallAccounted(t *testing.T) {
	for _, tr := range []core.Trigger{core.NewCountTrigger(4), core.NewWindowTrigger(45, 0)} {
		spec := smallTREMD(12, 3)
		spec.Pattern = core.PatternAsynchronous
		spec.AsyncWindow = 45
		spec.Trigger = tr
		rep := runVirtual(t, spec, quietCluster(), 12, 2881)
		if rep.AvgMDWall() <= 0 {
			t.Fatalf("%s: AvgMDWall %v, want > 0", tr.Name(), rep.AvgMDWall())
		}
		for i, rec := range rep.Records {
			if rec.MD.Tasks > 0 && rec.MD.Wall <= 0 {
				t.Fatalf("%s: record %d has %d MD tasks but zero MD wall",
					tr.Name(), i, rec.MD.Tasks)
			}
		}
	}
}

// TestPilotWalltimeFailover is the end-to-end fault-recovery test: a
// walltime-bounded pilot expires mid-run, its executing segments fail
// with a resource-loss error, the dispatcher resubmits them (without
// charging replica retry budgets) and the failover runtime provisions a
// fresh pilot. The run completes with no replica lost, and every
// relaunch stays on routing slot 0: bus events label the slot, not the
// failover generation.
func TestPilotWalltimeFailover(t *testing.T) {
	spec := smallTREMD(8, 3)
	spec.FaultPolicy = core.FaultRelaunch
	spec.Bus = core.NewBus()
	sub := spec.Bus.Subscribe(1 << 12)
	env := sim.NewEnv()
	cl := cluster.MustNew(env, quietCluster(), spec.Seed+1)
	eng := engines.NewAmberVirtual(2881, spec.Seed+2)
	var rt *pilot.MultiRuntime
	var report *core.Report
	var runErr error
	env.Go("emm", func(p *sim.Proc) {
		var err error
		// One 139.6s segment per cycle; a 250s walltime guarantees the
		// pilot dies inside the second segment.
		rt, err = pilot.NewFailoverRuntime(cl, pilot.Description{Cores: 8, Walltime: 250}, p)
		if err != nil {
			runErr = err
			return
		}
		simu, err := core.New(spec, eng, rt)
		if err != nil {
			runErr = err
			return
		}
		report, runErr = simu.Run()
	})
	env.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if rt.Relaunched() == 0 {
		t.Fatal("no pilot failover happened; walltime not enforced")
	}
	if report.Relaunches == 0 {
		t.Fatal("no interrupted segment was resubmitted")
	}
	if report.Dropped != 0 {
		t.Fatalf("dropped %d replicas; resource loss must not kill replicas", report.Dropped)
	}
	if len(report.Records) != 3 {
		t.Fatalf("records %d, want 3 (run did not complete)", len(report.Records))
	}
	// Each failover pays the batch queue again.
	if report.Makespan() < 3*139 {
		t.Fatalf("makespan %v too short for three segments", report.Makespan())
	}
	launches, mdEvents := 0, 0
	for _, ev := range sub.Drain(nil) {
		switch e := ev.(type) {
		case core.ResourceEvent:
			if e.Kind == task.ResourceLaunch {
				launches++
			}
			if e.Pilot != 0 {
				t.Errorf("%s resource event at t=%v labelled pilot %d, want slot 0", e.Kind, e.At, e.Pilot)
			}
		case core.MDEvent:
			mdEvents++
			if e.Pilot != 0 {
				t.Errorf("MD event of replica %d at t=%v labelled pilot %d, want slot 0", e.Replica, e.At, e.Pilot)
			}
		}
	}
	if launches < 2 {
		t.Fatalf("%d launch events on the bus, want the initial pilot and at least one relaunch", launches)
	}
	if mdEvents == 0 {
		t.Fatal("no MD events on the bus")
	}
}
