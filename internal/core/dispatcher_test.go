package core_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/localexec"
	"repro/internal/md"
	"repro/internal/task"
)

// The golden values in this file were captured from the seed
// implementation's runSync (the pre-dispatcher synchronous pattern) for
// fixed seeds. The dispatcher with BarrierTrigger must reproduce them
// bit-for-bit: same slot history, same acceptance counts, same virtual
// makespan.

// historyFingerprint hashes a slot history (FNV-1a over the row-major
// decimal rendering) into a compact value for golden comparisons.
func historyFingerprint(h [][]int) uint64 {
	f := fnv.New64a()
	for _, row := range h {
		for _, s := range row {
			fmt.Fprintf(f, "%d,", s)
		}
		fmt.Fprint(f, ";")
	}
	return f.Sum64()
}

func goldenTREMDSpec() *core.Spec {
	return &core.Spec{
		Name:            "golden-t",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 8)}},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          4,
		Seed:            21,
	}
}

func goldenTSUSpec() *core.Spec {
	return &core.Spec{
		Name: "golden-tsu",
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 3)},
			{Type: exchange.Salt, Values: []float64{0.1, 0.2, 0.4}},
			{Type: exchange.Umbrella, Values: core.UniformWindows(4), Torsion: "phi", K: core.UmbrellaK002},
		},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          2,
		Seed:            11,
	}
}

func sumExchanges(rep *core.Report) (attempted, accepted int) {
	for _, rec := range rep.Records {
		attempted += rec.Attempted
		accepted += rec.Accepted
	}
	return
}

func TestBarrierTriggerReproducesSeedSyncOnPilot(t *testing.T) {
	cases := []struct {
		spec        *core.Spec
		cores       int
		attempted   int
		accepted    int
		makespan    float64
		fingerprint uint64
		rows        int
	}{
		{goldenTREMDSpec(), 8, 14, 5, 625.788863, 0xc1c22324216858e1, 4},
		{goldenTSUSpec(), 36, 75, 15, 1102.091112, 0x161a1d589ae87673, 6},
	}
	for _, tc := range cases {
		// Default SuperMIC (jittered) — the seed goldens were captured
		// with the same machine, seeds and engine.
		rep := runVirtual(t, tc.spec, cluster.SuperMIC(), tc.cores, 2881)
		att, acc := sumExchanges(rep)
		if att != tc.attempted || acc != tc.accepted {
			t.Fatalf("%s: exchanges %d/%d, golden %d/%d",
				tc.spec.Name, acc, att, tc.accepted, tc.attempted)
		}
		if math.Abs(rep.Makespan()-tc.makespan) > 1e-4 {
			t.Fatalf("%s: makespan %.6f, golden %.6f", tc.spec.Name, rep.Makespan(), tc.makespan)
		}
		if len(rep.SlotHistory) != tc.rows {
			t.Fatalf("%s: %d slot-history rows, golden %d", tc.spec.Name, len(rep.SlotHistory), tc.rows)
		}
		if fp := historyFingerprint(rep.SlotHistory); fp != tc.fingerprint {
			t.Fatalf("%s: slot-history fingerprint %#x, golden %#x", tc.spec.Name, fp, tc.fingerprint)
		}
		if rep.Trigger != "barrier" {
			t.Fatalf("%s: trigger %q, want barrier", tc.spec.Name, rep.Trigger)
		}
	}
}

// rngEngine exposes the orchestrator's result-processing order: OwnEnergy
// consumes the engine rng, so any deviation from the seed's
// submission-order processing changes the energies and hence the
// exchange outcomes.
type rngEngine struct{ rng *rand.Rand }

func (e *rngEngine) Name() string                              { return "rng-stub" }
func (e *rngEngine) InitReplica(r *core.Replica, s *core.Spec) {}
func (e *rngEngine) MDTask(r *core.Replica, s *core.Spec, dim int) *task.Spec {
	return &task.Spec{Name: "md", Kind: task.MD, Cores: s.CoresPerReplica,
		Run: func() error { return nil }}
}
func (e *rngEngine) ExchangeTask(dim, n int, s *core.Spec) *task.Spec { return nil }
func (e *rngEngine) SinglePointTasks(dim int, g []*core.Replica, s *core.Spec) []*task.Spec {
	return nil
}
func (e *rngEngine) OwnEnergy(r *core.Replica) float64 {
	return -float64(r.Slot)*3 + 8*e.rng.NormFloat64()
}
func (e *rngEngine) CrossEnergy(r *core.Replica, under md.Params) float64 {
	return under.SaltM*10 + float64(len(under.Restraints))
}
func (e *rngEngine) TorsionIndex(label string) int          { return 0 }
func (e *rngEngine) PrepOverhead(nTasks, ndims int) float64 { return 0 }

func TestBarrierTriggerReproducesSeedSyncOnLocalexec(t *testing.T) {
	spec := &core.Spec{
		Name: "golden-local",
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 3)},
			{Type: exchange.Salt, Values: []float64{0.1, 0.2, 0.4}},
			{Type: exchange.Umbrella, Values: core.UniformWindows(4), Torsion: "phi", K: core.UmbrellaK002},
		},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   100,
		Cycles:          3,
		Seed:            19,
	}
	eng := &rngEngine{rng: rand.New(rand.NewSource(5))}
	simu, err := core.New(spec, eng, localexec.New(16))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := simu.Run()
	if err != nil {
		t.Fatal(err)
	}
	att, acc := sumExchanges(rep)
	if att != 117 || acc != 36 {
		t.Fatalf("exchanges %d/%d, golden 36/117", acc, att)
	}
	if len(rep.SlotHistory) != 9 {
		t.Fatalf("%d slot-history rows, golden 9", len(rep.SlotHistory))
	}
	if fp := historyFingerprint(rep.SlotHistory); fp != 0xc5a7ff8a68eb79b2 {
		t.Fatalf("slot-history fingerprint %#x, golden 0xc5a7ff8a68eb79b2", fp)
	}
}

func TestDispatcherRunsAreDeterministic(t *testing.T) {
	run := func() *core.Report { return runVirtual(t, goldenTSUSpec(), cluster.SuperMIC(), 36, 2881) }
	a, b := run(), run()
	if historyFingerprint(a.SlotHistory) != historyFingerprint(b.SlotHistory) {
		t.Fatal("same seed produced different slot histories")
	}
	if a.Makespan() != b.Makespan() {
		t.Fatalf("same seed produced different makespans: %v vs %v", a.Makespan(), b.Makespan())
	}
}

func TestWindowTriggerIsAsyncPatternAlias(t *testing.T) {
	mk := func(explicit bool) *core.Report {
		spec := smallTREMD(12, 3)
		spec.Pattern = core.PatternAsynchronous
		spec.AsyncWindow = 45
		spec.AsyncMinReady = 4
		if explicit {
			spec.Trigger = core.NewWindowTrigger(45, 4)
		}
		return runVirtual(t, spec, quietCluster(), 12, 2881)
	}
	alias, explicit := mk(false), mk(true)
	if alias.Makespan() != explicit.Makespan() {
		t.Fatalf("alias makespan %v != explicit window trigger %v", alias.Makespan(), explicit.Makespan())
	}
	if historyFingerprint(alias.SlotHistory) != historyFingerprint(explicit.SlotHistory) {
		t.Fatal("alias and explicit window trigger diverged")
	}
	if alias.Trigger != "window" || explicit.Trigger != "window" {
		t.Fatalf("trigger names %q/%q, want window", alias.Trigger, explicit.Trigger)
	}
}

func TestCountTriggerCompletes(t *testing.T) {
	spec := smallTREMD(12, 3)
	spec.Pattern = core.PatternAsynchronous
	spec.Trigger = core.NewCountTrigger(4)
	cfg := quietCluster()
	cfg.ExecJitter = 0.06
	rep := runVirtual(t, spec, cfg, 12, 2881)
	if rep.ExchangeEvents == 0 {
		t.Fatal("count trigger performed no exchanges")
	}
	if rep.Trigger != "count" {
		t.Fatalf("trigger %q, want count", rep.Trigger)
	}
	if u := rep.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %v out of (0,1]", u)
	}
	for _, r := range rep.Records {
		if r.Attempted == 0 {
			continue
		}
		if r.AcceptanceRatio() < 0 || r.AcceptanceRatio() > 1 {
			t.Fatalf("acceptance ratio %v out of range", r.AcceptanceRatio())
		}
	}
}

func TestCountTriggerNeverIdlesAtBoundaries(t *testing.T) {
	// With no window there is no boundary idling, so the count trigger's
	// utilization must be at least the window trigger's on the same
	// jittery workload.
	cfg := quietCluster()
	cfg.ExecJitter = 0.06
	mk := func(tr core.Trigger) *core.Report {
		spec := smallTREMD(16, 3)
		spec.Pattern = core.PatternAsynchronous
		spec.AsyncWindow = 100
		spec.Trigger = tr
		return runVirtual(t, spec, cfg, 16, 2881)
	}
	count := mk(core.NewCountTrigger(4))
	window := mk(core.NewWindowTrigger(100, 0))
	if count.Utilization() < window.Utilization() {
		t.Fatalf("count utilization %.3f below window %.3f",
			count.Utilization(), window.Utilization())
	}
}

func TestAdaptiveTriggerCompletes(t *testing.T) {
	spec := smallTREMD(12, 4)
	spec.Pattern = core.PatternAsynchronous
	spec.Trigger = core.NewAdaptiveTrigger(150)
	cfg := quietCluster()
	cfg.ExecJitter = 0.08
	rep := runVirtual(t, spec, cfg, 12, 2881)
	if rep.ExchangeEvents == 0 {
		t.Fatal("adaptive trigger performed no exchanges")
	}
	if rep.Trigger != "adaptive" {
		t.Fatalf("trigger %q, want adaptive", rep.Trigger)
	}
	// Every replica runs its full MD-segment budget; all but a possible
	// trailing unexchanged accumulation appear in the records.
	mdTasks := 0
	for _, r := range rep.Records {
		mdTasks += r.MD.Tasks
	}
	if mdTasks < spec.Replicas()*(spec.Cycles-1) || mdTasks > spec.Replicas()*spec.Cycles {
		t.Fatalf("recorded %d MD segments for a %d-segment budget", mdTasks, spec.Replicas()*spec.Cycles)
	}
}

func TestAdaptiveWindowTracksDispersion(t *testing.T) {
	// Unit-level: feed the trigger segment latencies with low and high
	// dispersion and check the adapted window expands with the spread.
	observe := func(tr *core.AdaptiveTrigger, lats []float64) float64 {
		for _, e := range lats {
			tr.Observe(core.MDEvent{At: e})
		}
		tr.Reset(core.TriggerState{Now: 1000})
		return tr.Deadline(core.TriggerState{}) - 1000
	}
	tight := observe(core.NewAdaptiveTrigger(100), []float64{100, 101, 99, 100, 100})
	wide := observe(core.NewAdaptiveTrigger(100), []float64{60, 140, 80, 120, 100})
	if wide <= tight {
		t.Fatalf("adaptive window did not grow with dispersion: tight %v, wide %v", tight, wide)
	}
	// Clamped to [Initial/4, Initial*4].
	huge := observe(core.NewAdaptiveTrigger(100), []float64{1, 4000, 1, 4000, 1})
	if huge > 400+1e-9 {
		t.Fatalf("adaptive window %v exceeded the clamp", huge)
	}
}

func TestNonPositiveWindowTriggersRejected(t *testing.T) {
	// A zero-length window can never make progress (the dispatcher
	// would fire no-op exchanges forever), so Validate must veto it
	// even though Spec.Trigger bypasses the AsyncWindow check.
	for _, tr := range []core.Trigger{
		core.NewWindowTrigger(0, 0),
		core.NewAdaptiveTrigger(0),
	} {
		spec := smallTREMD(4, 1)
		spec.Pattern = core.PatternAsynchronous
		spec.Trigger = tr
		if err := spec.Validate(); err == nil {
			t.Errorf("%s trigger with zero window accepted", tr.Name())
		}
	}
}

func TestAsyncRecordsSlotHistory(t *testing.T) {
	// The dispatcher snapshots slots after every exchange event, so
	// mixing diagnostics now work for the asynchronous family too.
	spec := smallTREMD(12, 3)
	spec.Pattern = core.PatternAsynchronous
	spec.AsyncWindow = 30
	spec.AsyncMinReady = 4
	rep := runVirtual(t, spec, quietCluster(), 12, 2881)
	if len(rep.SlotHistory) != rep.ExchangeEvents {
		t.Fatalf("slot history rows %d, want one per exchange event (%d)",
			len(rep.SlotHistory), rep.ExchangeEvents)
	}
}
