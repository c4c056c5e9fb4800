package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/trace"
)

// TestTracerDoesNotPerturbRun is the flight recorder's golden
// non-interference guarantee: attaching a tracer changes the run's slot
// history bit-for-bit not at all. Recording touches neither the RNG
// stream nor the virtual clock, and this test enforces it on the
// barrier workload.
func TestTracerDoesNotPerturbRun(t *testing.T) {
	plain := runVirtual(t, smallTREMD(8, 4), quietCluster(), 8, 2881)

	spec := smallTREMD(8, 4)
	rec := trace.New(0)
	spec.Tracer = rec
	traced := runVirtual(t, spec, quietCluster(), 8, 2881)

	if rec.Recorded() == 0 {
		t.Fatal("tracer attached but nothing recorded")
	}
	if traced.SlotFingerprint != plain.SlotFingerprint {
		t.Fatalf("slot fingerprint diverged under tracing: %x vs %x",
			traced.SlotFingerprint, plain.SlotFingerprint)
	}
	if historyFingerprint(traced.SlotHistory) != historyFingerprint(plain.SlotHistory) {
		t.Fatalf("slot history diverged under tracing:\nplain  %v\ntraced %v",
			plain.SlotHistory, traced.SlotHistory)
	}
	if traced.Makespan() != plain.Makespan() {
		t.Fatalf("makespan diverged under tracing: %v vs %v",
			traced.Makespan(), plain.Makespan())
	}
	ta, tc := sumExchanges(traced)
	pa, pc := sumExchanges(plain)
	if ta != pa || tc != pc {
		t.Fatalf("exchange outcomes diverged under tracing: %d/%d vs %d/%d", ta, tc, pa, pc)
	}
}

// TestTracerCheckpointResumeIdentical extends the non-interference
// guarantee across the checkpoint/resume boundary: a traced run killed
// after a snapshot and resumed (still traced) reproduces the untraced
// uninterrupted run's slot history exactly.
func TestTracerCheckpointResumeIdentical(t *testing.T) {
	full := runVirtual(t, smallTREMD(8, 4), quietCluster(), 8, 2881)

	var snaps []*core.Snapshot
	first := smallTREMD(8, 4)
	first.Tracer = trace.New(0)
	first.SnapshotEvery = 2
	first.OnSnapshot = func(sn *core.Snapshot) { snaps = append(snaps, sn) }
	runVirtual(t, first, quietCluster(), 8, 2881)
	if len(snaps) == 0 {
		t.Fatal("no snapshots written")
	}
	data, err := snaps[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	resumedSpec := smallTREMD(8, 4)
	resumedSpec.Tracer = trace.New(0)
	resumedSpec.Resume = snap
	resumed := runVirtual(t, resumedSpec, quietCluster(), 8, 2881)

	if resumed.SlotFingerprint != full.SlotFingerprint {
		t.Fatalf("traced resume fingerprint %x, untraced uninterrupted %x",
			resumed.SlotFingerprint, full.SlotFingerprint)
	}
	if historyFingerprint(resumed.SlotHistory) != historyFingerprint(full.SlotHistory) {
		t.Fatalf("traced resume slot history diverged:\nfull    %v\nresumed %v",
			full.SlotHistory, resumed.SlotHistory)
	}
}

// TestTracerDeterministicTimeline: under the virtual engine the
// recorded timeline itself is reproducible — two identical runs export
// byte-identical Chrome trace JSON.
func TestTracerDeterministicTimeline(t *testing.T) {
	export := func() []byte {
		spec := smallTREMD(8, 3)
		rec := trace.New(0)
		spec.Tracer = rec
		runVirtual(t, spec, quietCluster(), 8, 2881)
		data, err := rec.ExportJSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(export(), export()) {
		t.Fatal("two identical virtual runs exported different trace JSON")
	}
}

// TestTracerSpanAccounting is the coverage contract on a feedback-
// trigger run with a fault relaunch: every MD segment — including the
// relaunched one — appears as exactly one MD span (its retries carried
// in the span, the relaunch itself as a fault instant), every exchange
// event as one exchange span plus one controller-decision span, and the
// export is loadable trace JSON with the segments on the replica
// tracks.
func TestTracerSpanAccounting(t *testing.T) {
	cfg := quietCluster()
	cfg.FailureProb = 1 // kills exactly the flakyEngine's CanFail task
	cfg.SpeedFactor = 1
	tr := core.NewFeedbackTrigger(30)
	tr.Target = 0.5
	tr.WindowEvents = 8
	rec := trace.New(0)
	spec := &core.Spec{
		Name:            "trace-feedback",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 6)}},
		Pattern:         core.PatternAsynchronous,
		Trigger:         tr,
		CoresPerReplica: 1,
		StepsPerCycle:   100,
		Cycles:          3,
		AsyncWindow:     30,
		FaultPolicy:     core.FaultRelaunch,
		Seed:            13,
		Tracer:          rec,
	}
	eng := &flakyEngine{fastDur: 10, failDur: 100, slowDur: 50}
	rep := runVirtualEngine(t, spec, cfg, 6, eng)
	if rep.Relaunches != 1 || rep.Dropped != 0 {
		t.Fatalf("relaunches %d dropped %d, want 1/0 (flaky engine contract)",
			rep.Relaunches, rep.Dropped)
	}

	wantSegments := 6 * 3 // replicas x cycles, all completed
	var mdSpans, exSpans, ctlSpans, relaunchFaults, retries int
	for _, sp := range rec.Snapshot() {
		switch sp.Kind {
		case trace.KindMD:
			mdSpans++
			retries += sp.Retries
			if sp.Label != "" {
				t.Fatalf("unexpected failed MD span %+v in a zero-drop run", sp)
			}
			if sp.Dur <= 0 {
				t.Fatalf("MD span without duration: %+v", sp)
			}
		case trace.KindExchange:
			exSpans++
		case trace.KindController:
			ctlSpans++
		case trace.KindFault:
			if sp.Label == core.FaultKindRelaunch {
				relaunchFaults++
			}
		}
	}
	if mdSpans != wantSegments {
		t.Fatalf("%d MD spans, want %d (every finally-processed segment, relaunched one included)",
			mdSpans, wantSegments)
	}
	if retries != rep.Relaunches {
		t.Fatalf("MD spans carry %d retries, report says %d relaunches", retries, rep.Relaunches)
	}
	if relaunchFaults != rep.Relaunches {
		t.Fatalf("%d relaunch fault spans, want %d", relaunchFaults, rep.Relaunches)
	}
	if exSpans != rep.ExchangeEvents {
		t.Fatalf("%d exchange spans, want %d (one per fired event)", exSpans, rep.ExchangeEvents)
	}
	if ctlSpans != rep.ExchangeEvents {
		t.Fatalf("%d controller spans, want %d (one decision per fired event)", ctlSpans, rep.ExchangeEvents)
	}

	// The export must be loadable trace JSON carrying every segment on
	// the replica tracks (pid 2) and again on the pilot tracks (pid 3).
	data, err := rec.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	mdEvents := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "md" {
			mdEvents++
		}
	}
	if mdEvents != 2*wantSegments {
		t.Fatalf("%d md events in the export, want %d (segments on replica + pilot tracks)",
			mdEvents, 2*wantSegments)
	}
}

// TestTracerCheckpointAndCancelSpans: periodic snapshot deliveries and
// the cancellation boundary surface as checkpoint spans; cancelled
// in-flight segments as fault instants.
func TestTracerCheckpointSpans(t *testing.T) {
	rec := trace.New(0)
	spec := smallTREMD(8, 4)
	spec.Tracer = rec
	spec.SnapshotEvery = 2
	spec.OnSnapshot = func(*core.Snapshot) {}
	runVirtual(t, spec, quietCluster(), 8, 2881)
	ckpts := 0
	for _, sp := range rec.Snapshot() {
		if sp.Kind == trace.KindCheckpoint {
			ckpts++
		}
	}
	if ckpts != 2 {
		t.Fatalf("%d checkpoint spans, want 2 (4 events at SnapshotEvery=2)", ckpts)
	}
}

// TestTracerDropOrderMatchesBus: a dropped replica's terminal segment
// is reported once, so the flight recorder and the bus agree on the
// order — the failed MD span/event first, the drop fault right after.
func TestTracerDropOrderMatchesBus(t *testing.T) {
	cfg := quietCluster()
	cfg.FailureProb = 1 // kills exactly the flakyEngine's CanFail task
	cfg.SpeedFactor = 1
	rec := trace.New(0)
	bus := core.NewBus()
	sub := bus.Subscribe(1 << 12)
	spec := &core.Spec{
		Name:            "trace-drop",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 6)}},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   100,
		Cycles:          2,
		FaultPolicy:     core.FaultDrop,
		Seed:            13,
		Tracer:          rec,
		Bus:             bus,
	}
	rep := runVirtualEngine(t, spec, cfg, 6, &flakyEngine{fastDur: 10, failDur: 100, slowDur: 50})
	if rep.Dropped != 1 {
		t.Fatalf("dropped %d replicas, want 1 (flaky engine contract)", rep.Dropped)
	}

	spans := rec.Snapshot()
	spanAt := -1
	for i, sp := range spans {
		if sp.Kind == trace.KindMD && sp.Label == "failed" {
			spanAt = i
		}
	}
	if spanAt < 0 || spanAt+1 >= len(spans) {
		t.Fatalf("no failed MD span followed by another span in %d spans", len(spans))
	}
	if f := spans[spanAt+1]; f.Kind != trace.KindFault || f.Label != core.FaultKindDrop || f.Replica != spans[spanAt].Replica {
		t.Fatalf("span after the failed MD span is %+v, want the replica's drop fault", f)
	}

	events := sub.Drain(nil)
	evAt := -1
	for i, ev := range events {
		if md, ok := ev.(core.MDEvent); ok && md.Failed {
			evAt = i
		}
	}
	if evAt < 0 || evAt+1 >= len(events) {
		t.Fatalf("no failed MD event followed by another event in %d events", len(events))
	}
	if f, ok := events[evAt+1].(core.FaultEvent); !ok || f.Kind != core.FaultKindDrop {
		t.Fatalf("event after the failed MD event is %+v, want the drop fault", events[evAt+1])
	}
}
