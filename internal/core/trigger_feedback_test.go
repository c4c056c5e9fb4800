package core_test

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exchange"
)

// neighbourEvent builds an exchange event with n true-neighbour pair
// outcomes, accepted per the mask (index i -> pair (i, i+1)).
func neighbourEvent(accepted ...bool) core.ExchangeEvent {
	ev := core.ExchangeEvent{Dim: 0}
	for i, a := range accepted {
		ev.Pairs = append(ev.Pairs, core.PairOutcome{Lo: i, Hi: i + 1, Accepted: a})
	}
	return ev
}

// feedFill activates a feedback trigger's controller by alternating
// outcomes until the measurement window fills: with an even
// WindowEvents the measured ratio lands exactly on 0.5.
func feedFill(t *core.FeedbackTrigger) {
	for i := 0; ; i++ {
		if _, n := t.Acceptance(); n >= t.WindowEvents {
			return
		}
		t.Observe(neighbourEvent(i%2 == 0))
	}
}

// TestFeedbackControllerConvergence drives the proportional controller
// with synthetic acceptance series: persistent rejection must widen the
// window monotonically until the upper clamp, persistent acceptance
// must narrow it to the lower clamp, and the window must stay within
// the clamps at every step.
func TestFeedbackControllerConvergence(t *testing.T) {
	tr := core.NewFeedbackTrigger(100)
	tr.Target = 0.5
	tr.WindowEvents = 16
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	lo, hi := 100.0/8, 100.0*8

	feedFill(tr)
	if w := tr.Window(); w != 100 {
		t.Fatalf("fresh controller window %v, want the 100s initial", w)
	}

	// Starve it: all-rejected windows must widen the window every event
	// until it parks at the upper clamp.
	prev := tr.Window()
	for i := 0; i < 40; i++ {
		tr.Observe(neighbourEvent(false, false))
		w := tr.Window()
		if w < lo-1e-9 || w > hi+1e-9 {
			t.Fatalf("window %v escaped clamps [%v, %v]", w, lo, hi)
		}
		if w < prev-1e-9 {
			t.Fatalf("window shrank (%v -> %v) while acceptance was below target", prev, w)
		}
		prev = w
	}
	if prev != hi {
		t.Fatalf("window settled at %v under persistent rejection, want upper clamp %v", prev, hi)
	}

	// Flood it: all-accepted windows must narrow to the lower clamp.
	for i := 0; i < 60; i++ {
		tr.Observe(neighbourEvent(true, true))
	}
	if w := tr.Window(); w != lo {
		t.Fatalf("window settled at %v under persistent acceptance, want lower clamp %v", w, lo)
	}

	// Hysteresis: holding exactly the target leaves the window alone.
	at := tr.Window()
	for i := 0; i < 16; i++ {
		tr.Observe(neighbourEvent(true, false))
	}
	if w := tr.Window(); w != at {
		t.Fatalf("window moved (%v -> %v) while measured acceptance equals the target", at, w)
	}
}

// TestFeedbackIgnoresGapPairs: bridged pairs (Hi > Lo+1) never enter
// the measurement, and events carrying only gap pairs apply no control
// step — the controller must not chase dead-replica artifacts.
func TestFeedbackIgnoresGapPairs(t *testing.T) {
	tr := core.NewFeedbackTrigger(100)
	tr.Target = 0.5
	tr.WindowEvents = 8
	gap := core.ExchangeEvent{Pairs: []core.PairOutcome{{Lo: 0, Hi: 2, Accepted: true}}}
	for i := 0; i < 50; i++ {
		tr.Observe(gap)
	}
	if _, n := tr.Acceptance(); n != 0 {
		t.Fatalf("gap pairs entered the measurement window: %d outcomes", n)
	}
	if w := tr.Window(); w != 100 {
		t.Fatalf("gap-only events moved the window to %v", w)
	}

	// Activate, park the measurement below target, then verify stale
	// gap-only events stop pushing the window further.
	for i := 0; i < 8; i++ {
		tr.Observe(neighbourEvent(false))
	}
	at := tr.Window()
	for i := 0; i < 50; i++ {
		tr.Observe(gap)
	}
	if w := tr.Window(); w != at {
		t.Fatalf("stale measurement kept pushing the window (%v -> %v)", at, w)
	}
}

// TestFeedbackStateRoundTrip: EncodeState/RestoreState transplants the
// controller exactly — same measurement, same window, same response to
// the next event.
func TestFeedbackStateRoundTrip(t *testing.T) {
	a := core.NewFeedbackTrigger(100)
	a.Target = 0.4
	a.WindowEvents = 8
	for i := 0; i < 12; i++ {
		a.Observe(neighbourEvent(i%3 == 0, i%2 == 0))
	}
	data, err := a.EncodeState()
	if err != nil {
		t.Fatal(err)
	}

	b := core.NewFeedbackTrigger(100)
	b.Target = 0.4
	b.WindowEvents = 8
	if err := b.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	ra, na := a.Acceptance()
	rb, nb := b.Acceptance()
	if ra != rb || na != nb {
		t.Fatalf("restored measurement %v/%d, want %v/%d", rb, nb, ra, na)
	}
	if a.Window() != b.Window() {
		t.Fatalf("restored window %v, want %v", b.Window(), a.Window())
	}
	next := neighbourEvent(true, false, false)
	a.Observe(next)
	b.Observe(next)
	if a.Window() != b.Window() {
		t.Fatalf("controllers diverged after one event: %v vs %v", b.Window(), a.Window())
	}

	if err := b.RestoreState([]byte("{")); err == nil {
		t.Fatal("corrupt controller state accepted")
	}
}

// TestAdaptiveStateRoundTrip: the adaptive policy's dispersion estimate
// survives checkpoint/restart through the same StatefulTrigger path, so
// a resumed adaptive run reopens its window at the adapted length
// instead of falling back to Initial.
func TestAdaptiveStateRoundTrip(t *testing.T) {
	mk := func() *core.AdaptiveTrigger { return core.NewAdaptiveTrigger(100) }
	a := mk()
	for _, lat := range []float64{90, 110, 130, 95, 140} {
		a.Observe(core.MDEvent{At: lat})
	}
	data, err := a.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := b.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	var zero core.TriggerState
	a.Reset(zero)
	b.Reset(zero)
	if da, db := a.Deadline(zero), b.Deadline(zero); da != db {
		t.Fatalf("restored adaptive window %v, want %v", db, da)
	}
	if da := a.Deadline(zero); da == 100 {
		t.Fatalf("dispersion state was not exercised: window stayed at Initial (%v)", da)
	}
	if err := b.RestoreState([]byte(`{"n":-3}`)); err == nil {
		t.Fatal("negative sample count accepted")
	}
}

// TestFeedbackResumeDeterminism is the closed-loop checkpoint
// acceptance criterion: a feedback-trigger run killed after a snapshot
// and resumed from it must reproduce the uninterrupted run's slot
// history, which requires the controller state (rolling outcomes,
// controlled window) to survive in the snapshot — a fresh controller
// would time its exchanges differently.
func TestFeedbackResumeDeterminism(t *testing.T) {
	mkSpec := func() (*core.Spec, *core.FeedbackTrigger) {
		tr := core.NewFeedbackTrigger(150)
		tr.Target = 0.5
		tr.WindowEvents = 12
		s := &core.Spec{
			Name:            "ckpt-feedback",
			Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 8)}},
			Pattern:         core.PatternAsynchronous,
			Trigger:         tr,
			CoresPerReplica: 1,
			StepsPerCycle:   6000,
			Cycles:          8,
			AsyncWindow:     150,
			Seed:            21,
		}
		return s, tr
	}

	var snaps []*core.Snapshot
	spec, trFull := mkSpec()
	spec.SnapshotEvery = 3
	spec.OnSnapshot = func(sn *core.Snapshot) { snaps = append(snaps, sn) }
	full := runVirtual(t, spec, quietCluster(), 8, 2881)
	if len(snaps) < 2 {
		t.Fatalf("%d snapshots, want >= 2", len(snaps))
	}
	if snaps[1].Trigger != "feedback" {
		t.Fatalf("snapshot trigger %q, want feedback", snaps[1].Trigger)
	}
	if len(snaps[1].TriggerData) == 0 {
		t.Fatal("snapshot carries no feedback controller state")
	}

	// Kill + restart from the second snapshot (controller warmed up),
	// round-tripping through the serialized form.
	data, err := snaps[1].Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	resumedSpec, trResumed := mkSpec()
	resumedSpec.Resume = snap
	resumed := runVirtual(t, resumedSpec, quietCluster(), 8, 2881)

	if resumed.ExchangeEvents != full.ExchangeEvents {
		t.Fatalf("resumed run fired %d events, uninterrupted %d",
			resumed.ExchangeEvents, full.ExchangeEvents)
	}
	if historyFingerprint(resumed.SlotHistory) != historyFingerprint(full.SlotHistory) {
		t.Fatalf("resumed slot history diverged:\nfull    %v\nresumed %v",
			full.SlotHistory, resumed.SlotHistory)
	}
	// The controllers themselves must land in the same state.
	ra, na := trFull.Acceptance()
	rb, nb := trResumed.Acceptance()
	if ra != rb || na != nb {
		t.Fatalf("controller measurement diverged: full %v/%d, resumed %v/%d", ra, na, rb, nb)
	}
	if trFull.Window() != trResumed.Window() {
		t.Fatalf("controlled window diverged: full %v, resumed %v",
			trFull.Window(), trResumed.Window())
	}
}

// TestFeedbackHoldsTargetAcceptance is the closed-loop e2e acceptance
// criterion: on a jittery virtual T-REMD workload the feedback trigger
// must hold the mean neighbour acceptance (the rolling-window view the
// collector exports) within ±0.05 of its target after warm-up.
func TestFeedbackHoldsTargetAcceptance(t *testing.T) {
	const target = 0.5
	tr := core.NewFeedbackTrigger(100)
	tr.Target = target
	tr.WindowEvents = 64
	spec := &core.Spec{
		Name:            "feedback-hold",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 12)}},
		Pattern:         core.PatternAsynchronous,
		Trigger:         tr,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          40,
		AsyncWindow:     100,
		Seed:            42,
	}
	spec.Bus = core.NewBus()
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, analysis.RunBuffer(spec))
	cfg := cluster.SuperMIC()
	cfg.ExecJitter = 0.08
	cfg.FailureProb = 0
	runVirtual(t, spec, cfg, 12, 2881)

	if _, n := tr.Acceptance(); n < tr.WindowEvents {
		t.Fatalf("controller never warmed up: %d outcomes", n)
	}
	st := col.Snapshot()
	got := analysis.WeightedRatio(st.AcceptanceWindow[0])
	if math.Abs(got-target) > 0.05 {
		t.Fatalf("rolling neighbour acceptance %.3f, want within ±0.05 of %.2f", got, target)
	}
	// The controlled window must have settled inside its clamps.
	if w := tr.Window(); w < 100.0/8-1e-9 || w > 100.0*8+1e-9 {
		t.Fatalf("controlled window %v outside clamps", w)
	}
}

// dimEvent builds an exchange event along the given dimension with n
// true-neighbour pair outcomes accepted per the mask.
func dimEvent(dim int, accepted ...bool) core.ExchangeEvent {
	ev := neighbourEvent(accepted...)
	ev.Dim = dim
	return ev
}

// TestFeedbackPerDimIndependence: each exchange dimension owns its own
// measurement ring and actuators — starving one dimension must widen
// only that dimension's window, and per-dimension targets must resolve
// with fallback to the shared scalar.
func TestFeedbackPerDimIndependence(t *testing.T) {
	tr := core.NewFeedbackTrigger(100)
	tr.Target = 0.5
	tr.Targets = []float64{0, 0.25} // dim 0 falls back to Target
	tr.WindowEvents = 8
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}

	// Fill both dims at their targets: dim 0 alternating (0.5), dim 1
	// one accept per three rejects (0.25).
	for i := 0; i < 8; i++ {
		tr.Observe(dimEvent(0, i%2 == 0))
		tr.Observe(dimEvent(1, i%4 == 0))
	}
	st := tr.ControllerStatus()
	if len(st) != 2 {
		t.Fatalf("controller tracks %d dims, want 2", len(st))
	}
	if st[0].Target != 0.5 || st[1].Target != 0.25 {
		t.Fatalf("resolved targets %v/%v, want 0.5/0.25", st[0].Target, st[1].Target)
	}
	if !st[0].Active || !st[1].Active {
		t.Fatalf("controllers not active after fill: %+v", st)
	}
	w0, w1 := tr.WindowFor(0), tr.WindowFor(1)

	// Starve dim 0 only.
	for i := 0; i < 20; i++ {
		tr.Observe(dimEvent(0, false, false))
	}
	if got := tr.WindowFor(0); got <= w0 {
		t.Fatalf("dim-0 window %v did not widen from %v under rejection", got, w0)
	}
	if got := tr.WindowFor(1); got != w1 {
		t.Fatalf("dim-1 window moved (%v -> %v) while only dim 0 was starved", w1, got)
	}

	// The per-dim windows drive Reset through TriggerState.Dim.
	tr.Reset(core.TriggerState{Now: 1000, Dim: 0})
	d0 := tr.Deadline(core.TriggerState{Dim: 0})
	tr.Reset(core.TriggerState{Now: 1000, Dim: 1})
	d1 := tr.Deadline(core.TriggerState{Dim: 1})
	if d0-1000 != tr.WindowFor(0) || d1-1000 != tr.WindowFor(1) {
		t.Fatalf("Reset ignored the upcoming dimension: deadlines %v/%v, windows %v/%v",
			d0-1000, d1-1000, tr.WindowFor(0), tr.WindowFor(1))
	}
}

// TestFeedbackSaturationDiagnostic is the integral-term acceptance
// criterion: a ladder whose natural acceptance cannot reach the target
// must park at the window clamp, raise the saturation diagnostic and
// engage the MinReady actuator — not oscillate at the clamp — and must
// recover promptly (anti-windup) once acceptance returns.
func TestFeedbackSaturationDiagnostic(t *testing.T) {
	tr := core.NewFeedbackTrigger(100)
	tr.Target = 0.5
	tr.WindowEvents = 8
	tr.MinReady = 3
	feedFill(tr)
	_, hi := 100.0/8, 100.0*8

	// Unreachable from below: persistent rejection.
	var windows []float64
	for i := 0; i < 40; i++ {
		tr.Observe(dimEvent(0, false, false))
		windows = append(windows, tr.WindowFor(0))
	}
	st := tr.ControllerStatus()[0]
	if !st.Saturated {
		t.Fatalf("controller not saturated after 40 all-rejected events: %+v", st)
	}
	if st.Window != hi {
		t.Fatalf("saturated window %v, want parked at clamp %v", st.Window, hi)
	}
	if st.MinReady != 0 {
		t.Fatalf("second actuator min-ready %d, want 0 (collect the largest subsets)", st.MinReady)
	}
	// Parked, not oscillating: once the clamp is reached the window
	// never leaves it while the starvation persists.
	pinned := false
	for _, w := range windows {
		if w == hi {
			pinned = true
		} else if pinned {
			t.Fatalf("window oscillated at the clamp: %v", windows)
		}
	}
	// Decide honours the override: with min-ready forced to 0 a ready
	// subset below the boundary must keep waiting.
	tr.Reset(core.TriggerState{Now: 0, Dim: 0})
	dec := tr.Decide(core.TriggerState{Now: 0, Pending: 5, Ready: 3, ReadyBudget: 3, Dim: 0})
	if dec == core.TriggerFire {
		t.Fatal("saturated-wide controller still fires early on MinReady")
	}

	// Anti-windup: the integral must not have wound up during the
	// pinned stretch, so recovery is prompt once acceptance returns.
	for i := 0; i < 12; i++ {
		tr.Observe(dimEvent(0, true, true))
	}
	st = tr.ControllerStatus()[0]
	if st.Saturated {
		t.Fatalf("diagnostic still raised after recovery: %+v", st)
	}
	if st.Window >= hi {
		t.Fatalf("window still pinned at %v after 12 all-accepted events", st.Window)
	}
	if st.MinReady != 3 {
		t.Fatalf("min-ready %d after recovery, want the configured base 3", st.MinReady)
	}
}

// TestFeedbackMinReadyActuatorNarrow: pinned at the narrow clamp with
// acceptance still above target, the second actuator drops MinReady to
// 2 so exchanges fire the moment a pair can exchange.
func TestFeedbackMinReadyActuatorNarrow(t *testing.T) {
	tr := core.NewFeedbackTrigger(100)
	tr.Target = 0.2
	tr.WindowEvents = 8
	feedFill(tr)
	for i := 0; i < 60; i++ {
		tr.Observe(dimEvent(0, true, true))
	}
	st := tr.ControllerStatus()[0]
	if !st.Saturated || st.Window != 100.0/8 {
		t.Fatalf("controller not saturated narrow: %+v", st)
	}
	if st.MinReady != 2 {
		t.Fatalf("second actuator min-ready %d, want 2 (fire as soon as a pair exists)", st.MinReady)
	}
	tr.Reset(core.TriggerState{Now: 0, Dim: 0})
	dec := tr.Decide(core.TriggerState{Now: 0, Pending: 5, Ready: 2, ReadyBudget: 2, Dim: 0})
	if dec != core.TriggerFire {
		t.Fatalf("saturated-narrow controller decision %v, want an immediate fire at 2 ready", dec)
	}
}

// TestFeedbackPerDimStateRoundTrip: the per-dimension controller state
// (rings, integral accumulators, windows, saturation, overrides)
// transplants exactly, and a legacy single-controller snapshot decodes
// into dimension 0.
func TestFeedbackPerDimStateRoundTrip(t *testing.T) {
	mk := func() *core.FeedbackTrigger {
		tr := core.NewFeedbackTrigger(100)
		tr.Targets = []float64{0.5, 0.2}
		tr.WindowEvents = 8
		return tr
	}
	a := mk()
	for i := 0; i < 14; i++ {
		a.Observe(dimEvent(0, i%2 == 0, i%3 == 0))
		a.Observe(dimEvent(1, true, true)) // drives dim 1 to saturation
	}
	data, err := a.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := b.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.ControllerStatus(), b.ControllerStatus()
	if len(sa) != len(sb) {
		t.Fatalf("restored %d dims, want %d", len(sb), len(sa))
	}
	for d := range sa {
		if sa[d] != sb[d] {
			t.Fatalf("dim %d state diverged after restore:\n  full    %+v\n  resumed %+v", d, sa[d], sb[d])
		}
	}
	// Same response to the next event on each dim.
	for d := 0; d < 2; d++ {
		ev := dimEvent(d, true, false, false)
		a.Observe(ev)
		b.Observe(ev)
		if a.WindowFor(d) != b.WindowFor(d) {
			t.Fatalf("dim %d diverged after one post-restore event", d)
		}
	}

	// Legacy (pre-per-dimension) controller state restores into dim 0.
	legacy := []byte(`{"outcomes":[true,false,true,false],"cur":140,"active":true,"warm_n":3,"warm_mean":90,"warm_m2":4}`)
	c := mk()
	if err := c.RestoreState(legacy); err != nil {
		t.Fatal(err)
	}
	if ratio, n := c.Acceptance(); n != 4 || ratio != 0.5 {
		t.Fatalf("legacy outcomes restored as %v/%d, want 0.5/4", ratio, n)
	}
	if w := c.WindowFor(0); w != 140 {
		t.Fatalf("legacy window %v, want 140", w)
	}
	if err := c.RestoreState([]byte(`{"dims":[{"cur":10,"active":true,"min_ready_override":-7}]}`)); err == nil {
		t.Fatal("invalid min-ready override accepted")
	}
	// A failed restore must leave the previous controller state intact.
	if w := c.WindowFor(0); w != 140 {
		t.Fatalf("failed restore clobbered the controller: window %v, want 140", w)
	}
}

// tuGridSpec builds the 2-dim T×U feedback workload of the per-dim e2e
// tests: an 8-window temperature ladder crossed with an 8-window
// umbrella ladder, whose natural acceptances differ enough that one
// blended controller could not hold both set points.
func tuGridSpec(tr *core.FeedbackTrigger, cycles int, seed int64) *core.Spec {
	return &core.Spec{
		Name: "feedback-tu",
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 8)},
			{Type: exchange.Umbrella, Values: core.UniformWindows(8), Torsion: "phi", K: core.UmbrellaK002},
		},
		Pattern:         core.PatternAsynchronous,
		Trigger:         tr,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          cycles,
		AsyncWindow:     100,
		Seed:            seed,
	}
}

// TestFeedbackHoldsPerDimTargets is the per-dimension e2e acceptance
// criterion: on a 2-dim T×U grid with different per-dim set points,
// each dimension's rolling neighbour acceptance (the collector's
// windowed view) must hold within ±0.05 of its own target.
func TestFeedbackHoldsPerDimTargets(t *testing.T) {
	targets := []float64{0.35, 0.18}
	tr := core.NewFeedbackTrigger(100)
	tr.Targets = targets
	tr.WindowEvents = 32
	spec := tuGridSpec(tr, 60, 42)
	spec.Bus = core.NewBus()
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, analysis.RunBuffer(spec))
	cfg := cluster.SuperMIC()
	cfg.ExecJitter = 0.08
	cfg.FailureProb = 0
	runVirtual(t, spec, cfg, 64, 2881)

	st := col.Snapshot()
	for d, target := range targets {
		cs := tr.ControllerStatus()[d]
		if !cs.Active {
			t.Fatalf("dim %d controller never activated (%d outcomes)", d, cs.Outcomes)
		}
		got := analysis.WeightedRatio(st.AcceptanceWindow[d])
		if math.Abs(got-target) > 0.05 {
			t.Fatalf("dim %d rolling acceptance %.3f, want within ±0.05 of %.2f (controller: %+v)",
				d, got, target, cs)
		}
	}
	// The two dimensions must genuinely be steered apart: one shared
	// measurement could not hold both.
	a := analysis.WeightedRatio(st.AcceptanceWindow[0])
	b := analysis.WeightedRatio(st.AcceptanceWindow[1])
	if math.Abs(a-b) < 0.08 {
		t.Fatalf("per-dim acceptances %.3f/%.3f did not separate; targets %.2f/%.2f", a, b, targets[0], targets[1])
	}
}

// TestFeedbackPerDimResumeDeterminism is the multi-dimensional
// checkpoint acceptance criterion: a 2-dim feedback run killed after a
// snapshot and resumed from it must reproduce the uninterrupted slot
// history bit-for-bit, which requires every dimension's controller
// (ring, integral, window, actuator overrides) to survive in
// Snapshot.TriggerData.
func TestFeedbackPerDimResumeDeterminism(t *testing.T) {
	mkSpec := func() (*core.Spec, *core.FeedbackTrigger) {
		tr := core.NewFeedbackTrigger(150)
		tr.Targets = []float64{0.4, 0.2}
		tr.WindowEvents = 12
		return tuGridSpec(tr, 12, 21), tr
	}

	var snaps []*core.Snapshot
	spec, trFull := mkSpec()
	spec.SnapshotEvery = 2
	spec.OnSnapshot = func(sn *core.Snapshot) { snaps = append(snaps, sn) }
	full := runVirtual(t, spec, quietCluster(), 64, 2881)
	if len(snaps) < 3 {
		t.Fatalf("%d snapshots, want >= 3", len(snaps))
	}
	// Resume from a mid-run snapshot: the controllers are warmed up and
	// real work remains after the cut.
	sn := snaps[len(snaps)-2]
	if len(sn.TriggerData) == 0 {
		t.Fatal("snapshot carries no feedback controller state")
	}

	data, err := sn.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	resumedSpec, trResumed := mkSpec()
	resumedSpec.Resume = snap
	resumed := runVirtual(t, resumedSpec, quietCluster(), 64, 2881)

	if resumed.ExchangeEvents != full.ExchangeEvents {
		t.Fatalf("resumed run fired %d events, uninterrupted %d",
			resumed.ExchangeEvents, full.ExchangeEvents)
	}
	if historyFingerprint(resumed.SlotHistory) != historyFingerprint(full.SlotHistory) {
		t.Fatal("resumed multi-dim slot history diverged from the uninterrupted run")
	}
	sa, sb := trFull.ControllerStatus(), trResumed.ControllerStatus()
	if len(sa) != len(sb) {
		t.Fatalf("controllers track %d vs %d dims", len(sa), len(sb))
	}
	for d := range sa {
		if sa[d] != sb[d] {
			t.Fatalf("dim %d controller state diverged:\n  full    %+v\n  resumed %+v", d, sa[d], sb[d])
		}
	}
}
