package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/exchange"
	"repro/internal/task"
)

// This file is the event-driven scheduling core: one dispatcher loop,
// parameterized by a Trigger policy, drives every Replica Exchange
// Pattern. MD completions stream in through task.Runtime.AwaitNext (O(1)
// per event); the trigger decides when the ready replicas transition to
// the exchange phase, and one shared exchangePhase routine performs it.
//
// Failure handling is event-driven too: a failed MD segment is
// resubmitted through SubmitWatched as another in-flight event, so a
// retrying replica never blocks the loop — exchanges keep firing among
// the healthy replicas while the relaunch runs (the non-blocking fault
// recovery the paper's production scale requires).

// mdFlight is one replica's in-flight MD segment: the task handle, the
// dimension the segment was submitted for (relaunches must reuse it even
// if the dispatcher's current dimension has advanced) and the failure
// accounting of this segment.
type mdFlight struct {
	r *Replica
	h task.Handle
	// dim is the exchange dimension the segment was submitted under.
	dim int
	// start is the runtime time of the segment's first submission;
	// relaunches keep it, so (now - start) at final completion is the
	// segment's completion latency including every retry.
	start float64
	// infra counts resource-loss resubmissions (pilot walltime expiry)
	// of this segment; unlike Replica.Retries it is per-segment and does
	// not consume the replica's fault budget.
	infra int
	// rel counts replica-failure relaunches of this segment, so the
	// segment's MDEvent can report how many retries it absorbed
	// (infra + rel) without decoding the replica's lifetime budget.
	rel int
}

// dispatch runs the simulation to completion under the given trigger
// policy, or until ctx is cancelled (checked at exchange-event
// boundaries only, so every observable stop point has the shape of a
// periodic snapshot).
//
// Aligned policies (the barrier) reproduce the synchronous pattern
// exactly: each round is one (cycle, dimension) sub-cycle over all alive
// replicas, MD results are processed in submission order once the whole
// batch finished, and the record carries MD wall plus preparation
// overhead. Non-aligned policies reproduce the asynchronous shape:
// completions are processed as they arrive, exchanges run over the ready
// subset, and each record covers one exchange event.
func (s *Simulation) dispatch(ctx context.Context, tr Trigger) error {
	spec := s.spec
	ndims := len(spec.Dims)
	aligned := tr.Aligned()
	if s.resumed && spec.Resume.Trigger != "" && spec.Resume.Trigger != tr.Name() {
		return fmt.Errorf("core: snapshot was taken under trigger %q, resuming under %q",
			spec.Resume.Trigger, tr.Name())
	}
	// Closed-loop and latency-adaptive policies observe every reported
	// event (emit); stateful ones additionally resume their controller
	// state, so a resumed run makes the same trigger decisions.
	s.obs, _ = tr.(Observer)
	// Queued bus events are flushed once per dispatcher wakeup; the
	// deferred flush covers error returns mid-round. Resource events are
	// drained first (LIFO), so pilot lifecycle changes buffered by an
	// elastic runtime reach the bus even on error paths.
	defer s.flushBus()
	defer s.drainResourceEvents()
	if s.resumed && len(spec.Resume.TriggerData) > 0 {
		st, ok := tr.(StatefulTrigger)
		if !ok {
			return fmt.Errorf("core: snapshot carries %q trigger state, but the policy cannot restore it",
				spec.Resume.Trigger)
		}
		if err := st.RestoreState(spec.Resume.TriggerData); err != nil {
			return err
		}
	}
	// A replica's MD-segment budget: the synchronous pattern runs one
	// segment per (cycle, dimension) sub-cycle, the asynchronous family
	// one segment per cycle.
	segBudget := spec.Cycles
	if aligned {
		segBudget *= ndims
	}

	var (
		owner   = make(map[task.Handle]*mdFlight, len(s.replicas))
		batch   []*mdFlight // aligned: this round's flights in submission order
		ready   []*Replica  // non-aligned: processed replicas awaiting exchange
		next    []*Replica  // fire-time resubmission set, reused across rounds
		free    []*mdFlight // free list: absorbed flights are recycled
		readyB  int         // ready replicas with budget left
		pending int         // outstanding MD tasks
		done    int         // completed-but-unprocessed tasks (aligned)
		alive   = s.aliveCount()
		event   = s.resumeEvents // exchange events fired so far
		dim     = s.resumeEvents % ndims
		mdAccum PhaseRecord // MD results (incl. failed attempts) of the round
		prep    float64     // MD preparation overhead of the current round
		roundT0 float64     // round start (before MD preparation)
		mdStart float64     // first MD submission of the current round
	)

	// newFlight and freeFlight recycle mdFlight structs: the dispatcher
	// creates one per MD segment, which at production replica counts is
	// the dominant per-event allocation (ROADMAP: dispatcher allocation
	// pressure).
	newFlight := func(r *Replica) *mdFlight {
		if n := len(free) - 1; n >= 0 {
			f := free[n]
			free = free[:n]
			*f = mdFlight{r: r, dim: dim}
			return f
		}
		return &mdFlight{r: r, dim: dim}
	}
	freeFlight := func(f *mdFlight) {
		*f = mdFlight{}
		free = append(free, f)
	}

	// absorb processes one completed MD segment, tracking deaths.
	absorb := func(f *mdFlight, res task.Result, phase *PhaseRecord) {
		s.finishMD(f, res, phase)
		if !f.r.Alive {
			alive--
		}
	}

	state := func() TriggerState {
		st := TriggerState{
			Now:     s.rt.Now(),
			Pending: pending,
			Alive:   alive,
			// dim already points at the upcoming exchange's dimension:
			// fires advance it before Reset opens the next window, so
			// per-dimension policies steer the right actuator pair.
			Dim: dim,
		}
		if aligned {
			st.Ready = done
		} else {
			st.Ready = len(ready)
			st.ReadyBudget = readyB
		}
		return st
	}

	// submit sends one MD segment per replica, charging a single
	// task-preparation overhead for the whole batch.
	submit := func(rs []*Replica) {
		if len(rs) == 0 {
			return
		}
		p := s.engine.PrepOverhead(len(rs), ndims)
		s.rt.Overhead(p)
		prep += p
		mdStart = s.rt.Now()
		for _, r := range rs {
			f := newFlight(r)
			f.start = mdStart
			f.h = s.rt.SubmitWatched(s.engine.MDTask(r, spec, dim))
			owner[f.h] = f
			pending++
			if aligned {
				batch = append(batch, f)
			}
		}
	}

	// relaunch resubmits a failed MD segment as a fresh dispatcher event
	// and reports whether it did. Replica failures consume the replica's
	// retry budget under FaultRelaunch; resource-loss failures (pilot
	// walltime expiry) are resubmitted under either policy against a
	// separate per-segment cap, since they are the infrastructure's
	// fault, not the replica's.
	relaunch := func(f *mdFlight, res task.Result) bool {
		kind, retries := "", 0
		switch {
		case errors.Is(res.Err, task.ErrResourceLost):
			if f.infra >= MaxRetries {
				return false
			}
			f.infra++
			kind, retries = FaultKindResourceLost, f.infra
		case spec.FaultPolicy == FaultRelaunch && f.r.Retries < MaxRetries:
			f.r.Retries++
			f.rel++
			kind, retries = FaultKindRelaunch, f.r.Retries
		default:
			return false
		}
		s.emit(FaultEvent{At: s.rt.Now(), Replica: f.r.ID,
			Kind: kind, Retries: retries, Exec: res.Exec})
		// The failed attempt is charged to the round it happened in.
		mdAccum.absorb(res)
		s.report.MDExecCoreSeconds += res.Exec * float64(res.Spec.Cores)
		h := s.rt.SubmitWatched(s.engine.MDTask(f.r, spec, f.dim))
		delete(owner, f.h)
		f.h = h
		owner[h] = f
		pending++
		return true
	}

	// cancelRun stops the run at an exchange-event boundary. The snapshot
	// is captured first, so it has exactly the shape of a periodic one:
	// taken right after a fire, with no partially-absorbed MD results.
	// Every in-flight segment is then awaited and discarded — never
	// absorbed into replica state, so the engine's RNG stream stays at
	// the boundary and the discarded segments are simply redone on
	// resume, reproducing the uninterrupted run's slot history exactly.
	cancelRun := func() error {
		sn, snErr := s.captureSnapshot(tr, event)
		for pending > 0 {
			for _, h := range s.rt.AwaitNext(math.Inf(1)) {
				f := owner[h]
				delete(owner, h)
				pending--
				s.emit(FaultEvent{At: s.rt.Now(), Replica: f.r.ID,
					Kind: FaultKindCancelled})
				freeFlight(f)
			}
		}
		batch = batch[:0]
		ready = ready[:0]
		done, readyB = 0, 0
		s.flushBus()
		if snErr != nil {
			return snErr
		}
		if s.spec.OnSnapshot != nil {
			s.spec.OnSnapshot(sn)
			if s.reporting() {
				s.emit(CheckpointEvent{At: s.rt.Now(), Event: event, Cancel: true})
			}
		}
		return fmt.Errorf("core: %w at exchange event %d", ErrRunCancelled, event)
	}

	// A context cancelled before the run starts stops at event 0 — the
	// same boundary semantics, with nothing in flight yet.
	if ctx.Err() != nil {
		return cancelRun()
	}

	roundT0 = s.rt.Now()
	submit(s.budgetedReplicas(segBudget))
	s.drainResourceEvents() // pilot launch events precede the first round
	s.flushBus()
	tr.Reset(state())

	// noopFires detects policies that fire without making progress: two
	// consecutive no-op fires at the same instant cannot change the
	// trigger's input and would spin forever (e.g. a zero-length window
	// slipped past validation).
	noopFires := 0
	lastFireAt := 0.0

	for pending > 0 || done > 0 || len(ready) > 0 {
		st := state()
		switch tr.Decide(st) {
		case TriggerWait:
			if pending == 0 {
				return fmt.Errorf("core: trigger %q stalled with no MD task outstanding", tr.Name())
			}
			noopFires = 0
			for _, h := range s.rt.AwaitNext(tr.Deadline(st)) {
				f := owner[h]
				delete(owner, h)
				pending--
				res := h.Result()
				if res.Failed() && relaunch(f, res) {
					continue
				}
				if aligned {
					// Deferred: the barrier processes the whole batch in
					// submission order at fire time, matching the
					// synchronous pattern's post-barrier accounting.
					done++
					continue
				}
				absorb(f, res, &mdAccum)
				if f.r.Alive {
					ready = append(ready, f.r)
					if f.r.Cycle < segBudget {
						readyB++
					}
				}
				freeFlight(f)
			}
			s.drainResourceEvents()
			s.flushBus()

		case TriggerFireAtDeadline:
			s.rt.SleepUntil(tr.Deadline(st))
			fallthrough
		case TriggerFire:
			s.drainResourceEvents()
			fired := aligned || len(ready) >= 2
			if aligned {
				// One synchronous sub-cycle: process the batch, exchange
				// over all alive replicas, snapshot, advance.
				cycle := event / ndims
				rec := CycleRecord{Cycle: cycle, Dim: dim, At: s.rt.Now(),
					MD: mdAccum, RepExOverhead: prep}
				mdAccum = PhaseRecord{}
				prep = 0
				for _, f := range batch {
					absorb(f, f.h.Result(), &rec.MD)
					freeFlight(f)
				}
				batch = batch[:0]
				done = 0
				rec.MD.Wall = s.rt.Now() - mdStart
				var ph ExchangePhase
				if !spec.DisableExchange {
					ph = s.exchangePhase(s.aliveReplicas(), dim, cycle, &rec)
					rec.EX.Wall = s.rt.Now() - ph.Start
				}
				rec.Wall = s.rt.Now() - roundT0
				s.finishExchange(event, &rec, ph)
				if alive < 2 {
					return fmt.Errorf("core: fewer than two replicas alive after cycle %d", cycle)
				}
				event++
				dim = event % ndims
			} else if len(ready) >= 2 {
				// One asynchronous exchange event over the ready subset
				// (FIFO over the collection round). The round's MD wall is
				// the collection span: fire time minus round start.
				rec := CycleRecord{Cycle: event, Dim: dim, At: s.rt.Now(),
					MD: mdAccum, RepExOverhead: prep}
				rec.MD.Wall = s.rt.Now() - roundT0
				mdAccum = PhaseRecord{}
				prep = 0
				var ph ExchangePhase
				if !spec.DisableExchange {
					ph = s.exchangePhase(ready, dim, event, &rec)
					rec.EX.Wall = s.rt.Now() - ph.Start
				}
				rec.Wall = rec.EX.Wall
				s.finishExchange(event, &rec, ph)
				event++
				dim = event % ndims
			}
			if fired {
				// Respace before the boundary's snapshot so a refit and
				// the checkpoint that persists it land atomically.
				s.maybeRespace(tr, event)
				if err := s.maybeSnapshot(tr, event); err != nil {
					return err
				}
				// Cancellation is honoured only at fired boundaries: after
				// a no-op fire, ready-but-unexchanged replicas would not be
				// reconstructible from a snapshot, so the run keeps going
				// to the next real exchange event.
				if ctx.Err() != nil {
					return cancelRun()
				}
			}

			// Replicas with budget left go back to MD; the rest are done.
			next = next[:0]
			if aligned {
				for _, r := range s.replicas {
					if r.Alive && r.Cycle < segBudget {
						next = append(next, r)
					}
				}
			} else {
				for _, r := range ready {
					if r.Alive && r.Cycle < segBudget {
						next = append(next, r)
					}
				}
				ready = ready[:0]
				readyB = 0
			}
			// A new collection round starts only when an exchange event
			// actually fired; after a no-op fire (async, <2 ready) the
			// round — and its MD wall span — continues accumulating.
			if fired {
				roundT0 = s.rt.Now()
			}
			submit(next)
			tr.Reset(state())
			if fired || len(next) > 0 {
				noopFires = 0
			} else {
				if noopFires > 0 && s.rt.Now() <= lastFireAt {
					return fmt.Errorf("core: trigger %q fires without progress (livelock)", tr.Name())
				}
				noopFires++
				lastFireAt = s.rt.Now()
			}
		}
	}
	return nil
}

// exchangePhase performs one exchange along dimension d among the given
// participants: the single-point-energy tasks a dimension requires
// (salt), the exchange-computation task, the Metropolis sweep and the
// parameter swaps. Exchange groups are the grid lines along d restricted
// to alive participants; groups with fewer than two members cannot
// exchange and simply keep simulating. sweep seeds the alternating
// neighbour pairing.
//
// The Metropolis sweep is sharded: the per-pair uniforms are pre-drawn
// serially in pair order (preserving the serial RNG stream exactly), the
// read-only acceptance-probability math fans out across the bounded
// worker pool (evalPairProbs), and decisions plus swaps are applied
// serially in pair order afterwards. Pairs are disjoint — a replica
// belongs to exactly one group along d and to at most one pair per sweep
// — so no pair's probability depends on another pair's swap, and the
// result is bit-identical to the fully serial phase for any
// Spec.ExchangeWorkers setting. The returned timeline feeds the event's
// flight-recorder spans.
func (s *Simulation) exchangePhase(participants []*Replica, d, sweep int, rec *CycleRecord) ExchangePhase {
	ph := ExchangePhase{Ran: true, Start: s.rt.Now()}
	in := s.inScratch
	for _, r := range participants {
		if r.Alive {
			in[r.ID] = true
		}
	}
	members, off := s.collectGroups(d, in, 2)
	for _, r := range participants {
		in[r.ID] = false
	}
	nGroups := len(off) - 1
	if nGroups == 0 {
		return ph
	}

	// Client-side preparation of exchange tasks.
	prep := s.engine.PrepOverhead(nGroups, len(s.spec.Dims))
	s.rt.Overhead(prep)
	rec.RepExOverhead += prep

	// Single-point energy tasks (salt exchange): one per replica, wide
	// as its group, doubling the task count — the paper's stated cause
	// of S-REMD's exchange cost.
	ph.SPEStart = s.rt.Now()
	spe := s.speScratch[:0]
	for gi := 0; gi < nGroups; gi++ {
		for _, spec := range s.engine.SinglePointTasks(d, members[off[gi]:off[gi+1]], s.spec) {
			spe = append(spe, s.rt.Submit(spec))
		}
	}
	s.speScratch = spe
	if len(spe) > 0 {
		for _, res := range s.rt.AwaitAll(spe) {
			rec.EX.absorb(res)
		}
		ph.SPETasks, ph.SPEEnd = len(spe), s.rt.Now()
	}

	// The exchange-computation task itself (partner determination).
	if exSpec := s.engine.ExchangeTask(d, len(members), s.spec); exSpec != nil {
		rec.EX.absorb(s.rt.Await(s.rt.Submit(exSpec)))
	}

	// Neighbour pair lists, flat across groups in group order — the same
	// pair order the per-group serial sweep produced.
	ids := s.exIDs[:0]
	for _, r := range members {
		ids = append(ids, r.ID)
	}
	s.exIDs = ids
	pairs := s.exPairs[:0]
	for gi := 0; gi < nGroups; gi++ {
		pairs = exchange.AppendNeighborPairs(pairs, ids[off[gi]:off[gi+1]], sweep)
	}
	s.exPairs = pairs

	ph.Swept, ph.SweepStart = true, s.rt.Now()

	// Pre-draw one uniform per pair serially, in pair order: the RNG
	// stream is independent of the worker count, which is what keeps the
	// sharded evaluation below bit-identical to the serial path.
	probs := floatScratch(s.exProbs, len(pairs))
	unis := floatScratch(s.exUnis, len(pairs))
	s.exProbs, s.exUnis = probs, unis
	s.rngDraws += int64(len(pairs))
	for i := range unis {
		unis[i] = s.rng.Float64()
	}

	// Metropolis probabilities: the read-only energy math, sharded.
	s.evalPairProbs(d, pairs, probs)

	// Decisions and swaps, serially in pair order (client side,
	// negligible cost).
	// Per-pair outcomes feed the bus and an observing trigger.
	wantOut := s.spec.Bus != nil || s.obs != nil
	for i, pr := range pairs {
		rec.Attempted++
		accepted := unis[i] < probs[i]
		if wantOut {
			// Captured before applySwap: Lo/Hi are the partners'
			// window indices along d at decision time.
			ci := s.coordAlong(s.replicas[pr.I].Slot, d)
			cj := s.coordAlong(s.replicas[pr.J].Slot, d)
			out := PairOutcome{Lo: ci, Hi: cj, ReplicaI: pr.I, ReplicaJ: pr.J,
				Accepted: accepted}
			if out.Lo > out.Hi {
				out.Lo, out.Hi = out.Hi, out.Lo
				out.ReplicaI, out.ReplicaJ = out.ReplicaJ, out.ReplicaI
			}
			s.pairScratch = append(s.pairScratch, out)
		}
		if accepted {
			rec.Accepted++
			s.applySwap(s.replicas[pr.I], s.replicas[pr.J])
		}
	}
	ph.Attempted, ph.Accepted = rec.Attempted, rec.Accepted
	return ph
}
