package main

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/core"
)

// Pinned outputs at the default seed and full size. A change that moves
// any of them changed what the program computes, not how fast.
const (
	sync16kFingerprint = 0x916dacaba20f680d
	sync16kEvents      = 2
	sync16kFailed      = 0

	observedFingerprint = 0x50f7b9929562ed2b
	observedEvents      = 78
	observedFailed      = 141
)

// realTUUEnergyRef is the mean sampled potential energy (kcal/mol) per
// temperature window of real-tuu at full size and the default seed, and
// realTUUEnergyTol the accepted deviation; seeds 1 to 3 spread by less
// than 0.1. The MD kernel is not pinned bit-exactly (a
// neighbour list or a reordered sum legitimately changes rounding), but
// its thermodynamics must not move.
var realTUUEnergyRef = []float64{-5.471, -4.337, -3.031}

const realTUUEnergyTol = 0.5

func (w *realTUU) check(r *rep) error {
	spec := w.spec()
	want := spec.Replicas() * w.cycles * len(spec.Dims)
	if r.segments != want || r.dropped != 0 || r.failedAttempts != 0 {
		return fmt.Errorf("real-tuu: %d segments completed (%d failed attempts, %d dropped), want %d with no failures",
			r.segments, r.failedAttempts, r.dropped, want)
	}
	if !(r.acceptT > 0 && r.acceptT < 1) {
		return fmt.Errorf("real-tuu: temperature acceptance %g outside (0, 1)", r.acceptT)
	}
	for t, u := range r.meanEnergyByT {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return fmt.Errorf("real-tuu: mean potential energy at T window %d is %g", t, u)
		}
		if t > 0 && u <= r.meanEnergyByT[t-1] {
			return fmt.Errorf("real-tuu: mean potential energy does not rise with temperature: %v", r.meanEnergyByT)
		}
		if w.full && math.Abs(u-realTUUEnergyRef[t]) > realTUUEnergyTol {
			return fmt.Errorf("real-tuu: mean potential energy at T window %d is %.3f, want %.3f ± %g",
				t, u, realTUUEnergyRef[t], realTUUEnergyTol)
		}
	}
	return nil
}

func (w *sync16k) check(r *rep) error {
	if r.mode != core.ModeII {
		return fmt.Errorf("sync-16k: ran in Execution Mode %s, want II", r.mode)
	}
	if want := w.replicas * w.cycles; r.segments != want || r.dropped != 0 {
		return fmt.Errorf("sync-16k: %d segments completed (%d dropped), want %d", r.segments, r.dropped, want)
	}
	if r.rows != w.cycles || r.events != w.cycles {
		return fmt.Errorf("sync-16k: %d slot rows and %d exchange events, want %d of each (one per barrier)",
			r.rows, r.events, w.cycles)
	}
	if w.pinned {
		return pin("sync-16k", r, sync16kFingerprint, sync16kEvents, sync16kFailed)
	}
	return nil
}

func (w *observedChaos) check(r *rep) error {
	o := r.obs
	if o.err != nil {
		return fmt.Errorf("observed-chaos: %w", o.err)
	}
	if r.segments != w.segments || r.dropped != 0 || r.preemptions < 1 || r.relaunches < 1 {
		return fmt.Errorf("observed-chaos: %d of %d segments completed, %d dropped, %d preemptions, %d relaunches; want every segment, no drops and the chaos plan to have hit",
			r.segments, w.segments, r.dropped, r.preemptions, r.relaunches)
	}
	if o.busDropped != 0 {
		return fmt.Errorf("observed-chaos: collector lost %d bus events", o.busDropped)
	}
	if o.collectorEvents != r.events || o.collectorMD != r.segments {
		return fmt.Errorf("observed-chaos: collector saw %d events and %d segments, report has %d and %d",
			o.collectorEvents, o.collectorMD, r.events, r.segments)
	}
	if len(o.checkpointMs) != r.events || o.lastCheckpointEvents != r.events {
		return fmt.Errorf("observed-chaos: %d checkpoints, the last at event %d, over %d exchange events",
			len(o.checkpointMs), o.lastCheckpointEvents, r.events)
	}
	data, err := ckpt.Load(w.ckptPath)
	if err != nil {
		return fmt.Errorf("observed-chaos: %w", err)
	}
	sn, err := core.DecodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("observed-chaos: last checkpoint: %w", err)
	}
	if sn.Events != r.events || len(sn.Analysis) == 0 {
		return fmt.Errorf("observed-chaos: last checkpoint decodes at event %d (analysis %d bytes), want event %d with analysis state",
			sn.Events, len(sn.Analysis), r.events)
	}
	if w.pinned {
		return pin("observed-chaos", r, observedFingerprint, observedEvents, observedFailed)
	}
	return nil
}

// pin compares a run against its recorded default-seed outputs.
func pin(name string, r *rep, fingerprint uint64, events, failed int) error {
	if r.fingerprint != fingerprint || r.events != events || r.failedAttempts != failed {
		return fmt.Errorf("%s: slot fingerprint %016x, %d exchange events, %d failed attempts; pinned %016x, %d, %d",
			name, r.fingerprint, r.events, r.failedAttempts, fingerprint, events, failed)
	}
	return nil
}

// sameOutcome is the non-interference and determinism check: every run
// of one workload and seed, traced or not, must make the same exchange
// decisions and see the same failures.
func sameOutcome(name string, first, r *rep) error {
	if a, b := first.outcome(), r.outcome(); a != b {
		return fmt.Errorf("%s: runs of one seed disagree: %+v vs %+v", name, a, b)
	}
	return nil
}
