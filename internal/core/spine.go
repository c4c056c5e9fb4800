package core

import (
	"repro/internal/task"
	"repro/internal/trace"
)

// This file is the dispatcher's one report path. Every fact core
// reports — a finally-processed MD segment, an exchange event, a fault
// action, a pilot lifecycle change, a ladder re-fit, a checkpoint
// write — leaves through emit, which hands it synchronously to each
// consumer in a fixed order:
//
//  1. the running trigger, if it is an Observer;
//  2. the flight recorder (Spec.Tracer), through spans;
//  3. the Report's fault and preemption counters;
//  4. the bus batch (Spec.Bus), flushed once per dispatcher wakeup.
//
// No consumer touches the RNG stream or the virtual clock, so which
// consumers are attached cannot change the run (see
// TestTracerDoesNotPerturbRun). scripts/ci/spine_gate.sh keeps every
// other file in this package off the recorder, the bus batch and the
// observer method.

// emit reports one event to every attached consumer.
func (s *Simulation) emit(ev Event) {
	if s.obs != nil {
		s.obs.Observe(ev)
	}
	if rec := s.spec.Tracer; rec != nil {
		s.spans(rec, ev)
	}
	switch e := ev.(type) {
	case FaultEvent:
		switch e.Kind {
		case FaultKindRelaunch, FaultKindResourceLost:
			s.report.Relaunches++
		case FaultKindDrop:
			s.report.Dropped++
		case FaultKindCancelled:
			s.report.CancelledUnits++
		}
	case ResourceEvent:
		if e.Kind == task.ResourcePreempt {
			s.report.Preemptions++
		}
	case CheckpointEvent:
		return // the run's own bookkeeping: never on the bus
	}
	if s.spec.Bus != nil {
		s.busBatch = append(s.busBatch, ev)
	}
}

// reporting reports whether emit has a consumer besides the counters.
// Call sites of events the counters ignore (MD, exchange, checkpoint)
// test it before building the event, so a run without observers boxes
// nothing there.
func (s *Simulation) reporting() bool {
	return s.obs != nil || s.spec.Tracer != nil || s.spec.Bus != nil
}

// flushBus delivers the queued event batch to the bus, taking each
// subscriber's ring lock once per batch instead of once per event.
func (s *Simulation) flushBus() {
	if len(s.busBatch) == 0 {
		return
	}
	s.spec.Bus.PublishBatch(s.busBatch)
	for i := range s.busBatch {
		s.busBatch[i] = nil
	}
	s.busBatch = s.busBatch[:0]
}

// spans records the flight-recorder spans of one event: an MD segment
// span (first submission to final completion, relaunch retries
// included; "failed" for a dropped replica's terminal segment), an
// exchange event's single-point-energy wave, pair sweep and whole-phase
// spans plus the feedback controller's decision after it, and one
// instant per fault action, pilot lifecycle change, ladder re-fit and
// checkpoint.
func (s *Simulation) spans(rec *trace.Recorder, ev Event) {
	switch e := ev.(type) {
	case MDEvent:
		sp := trace.Span{Kind: trace.KindMD, Start: e.Start, Dur: e.Finished - e.Start,
			Replica: e.Replica, Dim: e.Dim, Pilot: e.Pilot, Retries: e.Retries, Event: e.Cycle - 1}
		if e.Failed {
			// A dropped replica's Cycle stays at the failed segment.
			sp.Event, sp.Label = e.Cycle, "failed"
		}
		rec.Record(sp)
	case ExchangeEvent:
		ph := e.Phase
		if ph.SPETasks > 0 {
			rec.Record(trace.Span{Kind: trace.KindSPE, Start: ph.SPEStart,
				Dur: ph.SPEEnd - ph.SPEStart, Dim: e.Dim, Event: e.Cycle, Pairs: ph.SPETasks})
		}
		if ph.Swept {
			rec.Record(trace.Span{Kind: trace.KindPairs, Start: ph.SweepStart,
				Dur: e.At - ph.SweepStart, Dim: e.Dim, Event: e.Cycle,
				Pairs: ph.Attempted, Accepted: ph.Accepted})
		}
		if ph.Ran {
			rec.Record(trace.Span{Kind: trace.KindExchange, Start: ph.Start,
				Dur: e.At - ph.Start, Dim: e.Dim, Event: e.Event,
				Pairs: ph.Attempted, Accepted: ph.Accepted})
		}
		// The trigger observed the event first, so the fired
		// dimension's control step has already run.
		if fb, ok := s.obs.(*FeedbackTrigger); ok {
			st := fb.DimStatus(e.Dim)
			sp := trace.Span{Kind: trace.KindController, Start: e.At, Dim: e.Dim,
				Event: e.Event, Pairs: st.Outcomes, Window: st.Window,
				Measured: st.Measured, MinReady: st.MinReady}
			if st.Saturated {
				sp.Label = "saturated"
			}
			rec.Record(sp)
		}
	case FaultEvent:
		rec.Record(trace.Span{Kind: trace.KindFault, Start: e.At,
			Replica: e.Replica, Retries: e.Retries, Label: e.Kind})
	case ResourceEvent:
		rec.Record(trace.Span{Kind: trace.KindResource, Start: e.At,
			Pilot: e.Pilot, Pairs: e.Cores, Label: e.Kind})
	case RespaceEvent:
		// On the dimension's controller track; Retries carries the
		// refit ordinal.
		rec.Record(trace.Span{Kind: trace.KindRespace, Start: e.At,
			Dim: e.Dim, Event: e.Event, Retries: e.Refit})
	case CheckpointEvent:
		sp := trace.Span{Kind: trace.KindCheckpoint, Start: e.At, Event: e.Event}
		if e.Cancel {
			sp.Label = "cancel"
		}
		rec.Record(sp)
	}
}
