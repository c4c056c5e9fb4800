package core_test

import (
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/exchange"
)

// TestShardedExchangeEquivalence is the acceptance test for the sharded
// exchange phase: the run must be bit-identical — same slot history
// fingerprint, same acceptance counts, same virtual makespan — whether
// the pair probabilities are evaluated serially or fanned across a
// worker pool. The golden fingerprints pin the serial seed behaviour,
// so a sharding change that reorders RNG draws or lets a swap leak into
// another pair's energy evaluation fails against the same constants the
// barrier golden test uses.
func TestShardedExchangeEquivalence(t *testing.T) {
	cases := []struct {
		name        string
		spec        func() *core.Spec
		cores       int
		fingerprint uint64
	}{
		{"tremd", goldenTREMDSpec, 8, 0xc1c22324216858e1},
		{"tsu", goldenTSUSpec, 36, 0x161a1d589ae87673},
	}
	workerSettings := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				fp                  uint64
				attempted, accepted int
				makespan            float64
			}
			var ref outcome
			for i, workers := range workerSettings {
				spec := tc.spec()
				spec.ExchangeWorkers = workers
				rep := runVirtual(t, spec, cluster.SuperMIC(), tc.cores, 2881)
				att, acc := sumExchanges(rep)
				got := outcome{rep.SlotFingerprint, att, acc, rep.Makespan()}
				if rep.SlotFingerprint != historyFingerprint(rep.SlotHistory) {
					t.Fatalf("workers=%d: rolling fingerprint %#x does not match history %#x",
						workers, rep.SlotFingerprint, historyFingerprint(rep.SlotHistory))
				}
				if rep.SlotFingerprint != tc.fingerprint {
					t.Fatalf("workers=%d: fingerprint %#x, golden %#x",
						workers, rep.SlotFingerprint, tc.fingerprint)
				}
				if rep.SlotRows != len(rep.SlotHistory) {
					t.Fatalf("workers=%d: SlotRows %d, history has %d rows",
						workers, rep.SlotRows, len(rep.SlotHistory))
				}
				if i == 0 {
					ref = got
					continue
				}
				if got != ref {
					t.Fatalf("workers=%d diverged from workers=%d: %+v vs %+v",
						workers, workerSettings[0], got, ref)
				}
			}
		})
	}
}

// TestShardedExchangeAsyncEquivalence covers the non-aligned dispatcher
// path: count-triggered exchanges over ready subsets must also be
// worker-count invariant (ragged group sizes, gap pairs and per-event
// dimension rotation all exercise the flat pair indexing).
func TestShardedExchangeAsyncEquivalence(t *testing.T) {
	run := func(workers int) *core.Report {
		spec := smallTREMD(12, 4)
		spec.Pattern = core.PatternAsynchronous
		spec.Trigger = core.NewCountTrigger(4)
		spec.ExchangeWorkers = workers
		return runVirtual(t, spec, quietCluster(), 6, 2881)
	}
	ref := run(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		rep := run(workers)
		if rep.SlotFingerprint != ref.SlotFingerprint {
			t.Fatalf("workers=%d: fingerprint %#x, serial %#x",
				workers, rep.SlotFingerprint, ref.SlotFingerprint)
		}
		if rep.ExchangeEvents != ref.ExchangeEvents || rep.Makespan() != ref.Makespan() {
			t.Fatalf("workers=%d: %d events makespan %v, serial %d events makespan %v",
				workers, rep.ExchangeEvents, rep.Makespan(), ref.ExchangeEvents, ref.Makespan())
		}
	}
}

// TestShardedExchangeResumeEquivalence kills a serial run at its first
// snapshot and resumes it with a sharded exchange phase: the resumed
// run must land on the uninterrupted serial run's fingerprint, proving
// the worker pool changes neither the RNG stream nor the swap order
// across a checkpoint boundary.
func TestShardedExchangeResumeEquivalence(t *testing.T) {
	mkSpec := func(workers int) *core.Spec {
		s := smallTREMD(8, 4)
		s.Name = "shard-ckpt"
		s.ExchangeWorkers = workers
		return s
	}

	var snaps []*core.Snapshot
	spec := mkSpec(1)
	spec.SnapshotEvery = 2
	spec.OnSnapshot = func(sn *core.Snapshot) { snaps = append(snaps, sn) }
	full := runVirtual(t, spec, quietCluster(), 8, 2881)
	if len(snaps) == 0 {
		t.Fatal("no snapshot captured")
	}

	snap, err := core.DecodeSnapshot(mustEncode(t, snaps[0]))
	if err != nil {
		t.Fatal(err)
	}
	resumedSpec := mkSpec(4)
	resumedSpec.Resume = snap
	resumed := runVirtual(t, resumedSpec, quietCluster(), 8, 2881)

	if resumed.SlotFingerprint != full.SlotFingerprint {
		t.Fatalf("sharded resume fingerprint %#x, serial uninterrupted %#x",
			resumed.SlotFingerprint, full.SlotFingerprint)
	}
	if resumed.SlotRows != full.SlotRows {
		t.Fatalf("sharded resume rows %d, serial uninterrupted %d",
			resumed.SlotRows, full.SlotRows)
	}
	if historyFingerprint(resumed.SlotHistory) != historyFingerprint(full.SlotHistory) {
		t.Fatal("sharded resume slot history diverged from the serial uninterrupted run")
	}
}

// TestHistoryTailBoundsHistory pins the bounded-history contract:
// HistoryTail keeps only the newest rows while SlotRows and the rolling
// fingerprint still describe the full run, identical to the unbounded
// run's.
func TestHistoryTailBoundsHistory(t *testing.T) {
	const tail = 3
	mk := func(tail int) *core.Spec {
		s := smallTREMD(8, 6)
		s.HistoryTail = tail
		return s
	}
	full := runVirtual(t, mk(0), quietCluster(), 8, 2881)
	bounded := runVirtual(t, mk(tail), quietCluster(), 8, 2881)

	if len(full.SlotHistory) != 6 || full.SlotRows != 6 {
		t.Fatalf("unbounded run kept %d rows (SlotRows %d), want 6", len(full.SlotHistory), full.SlotRows)
	}
	if len(bounded.SlotHistory) != tail {
		t.Fatalf("bounded run kept %d rows, want %d", len(bounded.SlotHistory), tail)
	}
	if bounded.SlotRows != full.SlotRows {
		t.Fatalf("bounded SlotRows %d, full %d", bounded.SlotRows, full.SlotRows)
	}
	if bounded.SlotFingerprint != full.SlotFingerprint {
		t.Fatalf("bounded fingerprint %#x, full %#x", bounded.SlotFingerprint, full.SlotFingerprint)
	}
	if core.HistoryFingerprint(full.SlotHistory) != full.SlotFingerprint {
		t.Fatalf("exported HistoryFingerprint %#x disagrees with rolling %#x",
			core.HistoryFingerprint(full.SlotHistory), full.SlotFingerprint)
	}
	// The retained rows are exactly the newest rows of the full history.
	offset := len(full.SlotHistory) - tail
	for i, row := range bounded.SlotHistory {
		want := full.SlotHistory[offset+i]
		for j := range row {
			if row[j] != want[j] {
				t.Fatalf("retained row %d differs from full row %d: %v vs %v",
					i, offset+i, row, want)
			}
		}
	}
}

// TestHistoryTailSnapshotResume proves the rolling fingerprint survives
// a checkpoint taken under a bounded history: the snapshot carries only
// the tail rows, yet the resumed run still reports the full-history
// fingerprint of the uninterrupted unbounded run.
func TestHistoryTailSnapshotResume(t *testing.T) {
	mkSpec := func() *core.Spec {
		s := smallTREMD(8, 4)
		s.Name = "tail-ckpt"
		s.HistoryTail = 1
		return s
	}

	unbounded := smallTREMD(8, 4)
	unbounded.Name = "tail-ckpt"
	ref := runVirtual(t, unbounded, quietCluster(), 8, 2881)

	var snaps []*core.Snapshot
	spec := mkSpec()
	spec.SnapshotEvery = 2
	spec.OnSnapshot = func(sn *core.Snapshot) { snaps = append(snaps, sn) }
	runVirtual(t, spec, quietCluster(), 8, 2881)
	if len(snaps) == 0 {
		t.Fatal("no snapshot captured")
	}
	if len(snaps[0].SlotHistory) != 1 {
		t.Fatalf("snapshot stored %d rows under HistoryTail=1, want 1", len(snaps[0].SlotHistory))
	}
	if snaps[0].SlotRows != 2 || snaps[0].SlotFingerprint == 0 {
		t.Fatalf("snapshot rows %d fingerprint %#x, want full-history values",
			snaps[0].SlotRows, snaps[0].SlotFingerprint)
	}

	snap, err := core.DecodeSnapshot(mustEncode(t, snaps[0]))
	if err != nil {
		t.Fatal(err)
	}
	resumedSpec := mkSpec()
	resumedSpec.Resume = snap
	resumed := runVirtual(t, resumedSpec, quietCluster(), 8, 2881)

	if resumed.SlotFingerprint != ref.SlotFingerprint {
		t.Fatalf("tail-bounded resumed fingerprint %#x, unbounded uninterrupted %#x",
			resumed.SlotFingerprint, ref.SlotFingerprint)
	}
	if resumed.SlotRows != ref.SlotRows {
		t.Fatalf("tail-bounded resumed rows %d, unbounded %d", resumed.SlotRows, ref.SlotRows)
	}
	if len(resumed.SlotHistory) != 1 {
		t.Fatalf("resumed run kept %d rows, want 1", len(resumed.SlotHistory))
	}
}

// TestHistoryTailBusRowsNotRecycled guards the rotation/aliasing hazard:
// ExchangeEvent.Slots shares the history row's backing array, so a
// bounded history must never reuse a rotated-out row's storage while a
// bus is attached — a subscriber's buffered event would silently mutate.
// Reconstructing the full-history fingerprint from the drained events
// proves every published row survived intact.
func TestHistoryTailBusRowsNotRecycled(t *testing.T) {
	bus := core.NewBus()
	sub := bus.Subscribe(256)
	spec := smallTREMD(6, 5)
	spec.HistoryTail = 1
	spec.Bus = bus
	rep := runVirtual(t, spec, quietCluster(), 6, 2881)

	var rows [][]int
	for _, ev := range sub.Drain(nil) {
		if ex, ok := ev.(core.ExchangeEvent); ok {
			rows = append(rows, ex.Slots)
		}
	}
	if len(rows) != rep.SlotRows {
		t.Fatalf("drained %d exchange events, report says %d rows", len(rows), rep.SlotRows)
	}
	if fp := core.HistoryFingerprint(rows); fp != rep.SlotFingerprint {
		t.Fatalf("fingerprint over drained event rows %#x, report %#x: rotated rows were recycled",
			fp, rep.SlotFingerprint)
	}
}

// TestHistoryTailValidation covers the config guard rails.
func TestHistoryTailValidation(t *testing.T) {
	s := smallTREMD(4, 1)
	s.HistoryTail = -1
	if err := s.Validate(); err == nil {
		t.Fatal("negative history tail accepted")
	}
	s = smallTREMD(4, 1)
	s.ExchangeWorkers = -2
	if err := s.Validate(); err == nil {
		t.Fatal("negative exchange workers accepted")
	}
}

// TestAdaptiveWindowWidensUnderRelaunch is the fault test for the
// latency-fed dispersion estimate: replica 0's first segment fails at
// 300s (the cluster kills a CanFail task halfway through its 600s
// duration) and its relaunch completes ~310s after first submission,
// while every per-attempt execution time in the run is 10s. A
// dispersion estimate built from per-attempt exec times would see zero
// spread and collapse the window to its lower clamp; the completion
// latency the dispatcher now feeds through Observe includes the
// fault-driven delay, so the adapted window must widen well past the
// initial one.
func TestAdaptiveWindowWidensUnderRelaunch(t *testing.T) {
	cfg := quietCluster()
	cfg.FailureProb = 1 // kills exactly the CanFail task
	cfg.SpeedFactor = 1 // keep task durations in reference seconds
	tr := core.NewAdaptiveTrigger(50)
	spec := &core.Spec{
		Name:            "adaptive-fault",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 6)}},
		Pattern:         core.PatternAsynchronous,
		Trigger:         tr,
		CoresPerReplica: 1,
		StepsPerCycle:   100,
		Cycles:          2,
		FaultPolicy:     core.FaultRelaunch,
		Seed:            13,
	}
	eng := &flakyEngine{fastDur: 10, failDur: 600, slowDur: 10}
	rep := runVirtualEngine(t, spec, cfg, 6, eng)

	if rep.Relaunches != 1 || rep.Dropped != 0 {
		t.Fatalf("relaunches %d dropped %d, want 1/0", rep.Relaunches, rep.Dropped)
	}
	// One latency observation per finally-completed segment: 6 replicas
	// x 2 cycles, with the failed attempt folded into its segment's
	// latency rather than counted separately.
	data, err := tr.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		N    int     `json:"n"`
		Mean float64 `json:"mean"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.N != 12 {
		t.Fatalf("dispersion estimate saw %d observations, want 12 (one per segment)", st.N)
	}
	// Every successful attempt ran 10s, so a per-attempt estimate would
	// have mean ~10; the relaunched segment's ~310s completion latency
	// must dominate the mean and widen the window past Initial.
	if st.Mean < 20 {
		t.Fatalf("latency mean %.1f, want fault-driven delay included (>= 20)", st.Mean)
	}
	tr.Reset(core.TriggerState{Now: 0})
	window := tr.Deadline(core.TriggerState{})
	if window <= 50 {
		t.Fatalf("adapted window %.1f did not widen past the initial 50s under a 300s fault delay", window)
	}
}
