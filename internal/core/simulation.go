package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/exchange"
	"repro/internal/md"
	"repro/internal/task"
)

// Simulation is a configured REMD run: the EMM of the paper's module
// structure. It owns the replica set, the slot-to-replica mapping and
// all runtime interaction; it is engine independent.
type Simulation struct {
	spec   *Spec
	engine Engine
	rt     task.Runtime

	grid       exchange.Grid
	replicas   []*Replica
	replicaAt  []int // slot -> replica ID
	slotParams []md.Params
	// slotGroups caches grid.GroupsAlong per dimension: the grouping is a
	// pure function of the grid shape, so recomputing it on every
	// exchange event (hot for asynchronous triggers) would be waste.
	slotGroups [][][]int
	// dimStride caches the row-major stride of each dimension for O(1)
	// slot-to-window-index conversion when publishing pair outcomes.
	dimStride []int
	// pairScratch accumulates the current exchange event's pair outcomes
	// for the event bus and an observing trigger (nil while neither
	// consumer is attached).
	pairScratch []PairOutcome
	// obs is the running trigger when it is an Observer, set by dispatch
	// (nil otherwise).
	obs Observer
	rng *rand.Rand
	// rngDraws counts uniforms consumed from rng, so a Snapshot can
	// restore the exact RNG state by replaying the draw count.
	rngDraws int64

	// exWorkers is the resolved exchange worker-pool bound; exForce marks
	// an explicit Spec.ExchangeWorkers >= 2, which shards regardless of
	// event size (the default pool stays serial below a work threshold).
	exWorkers int
	exForce   bool
	// Exchange-phase scratch, reused across events so the hot loop
	// allocates nothing per exchange: participant membership by replica
	// ID, the flat group members with their boundary offsets and IDs, the
	// grouped view handed to liveGroups callers, the flat pair list and
	// its probability/uniform arrays, and the single-point-energy
	// handles.
	inScratch    []bool
	exMembers    []*Replica
	exOff        []int
	exIDs        []int
	groupScratch [][]*Replica
	exPairs      []exchange.Pair
	exProbs      []float64
	exUnis       []float64
	speScratch   []task.Handle
	// busBatch accumulates a collection round's bus events for one
	// batched Bus.PublishBatch call per dispatcher wakeup.
	busBatch []Event

	// respaceMu guards the fields a live ladder re-fit rewrites against
	// concurrent status readers: spec.Dims values, slotParams, the refit
	// counters and the respacing history. Only the dispatcher goroutine
	// mutates them; HTTP surfaces read through LadderValues and
	// RespaceHistory.
	respaceMu sync.Mutex
	// respacings is the run's refit history (appended by maybeRespace);
	// refits counts refits per dimension for the MaxRefits budget.
	respacings []RespaceRecord
	refits     []int

	// resumeEvents is the exchange-event counter restored from
	// Spec.Resume (0 for a fresh run); resumeElapsed is the virtual run
	// time consumed before the snapshot, and resumed marks a restored
	// run.
	resumeEvents  int
	resumeElapsed float64
	resumed       bool

	// state is the run's lifecycle state (RunState), readable
	// concurrently through State while the dispatcher runs.
	state atomic.Int32

	report *Report
}

// New validates the spec and builds the replica set with initial
// parameters; replica i starts in slot i.
func New(spec *Spec, engine Engine, rt task.Runtime) (*Simulation, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.MaxRetries == 0 {
		spec.MaxRetries = 3
	}
	grid := spec.Grid()
	n := grid.Size()
	s := &Simulation{
		spec:       spec,
		engine:     engine,
		rt:         rt,
		grid:       grid,
		replicas:   make([]*Replica, n),
		replicaAt:  make([]int, n),
		slotParams: make([]md.Params, n),
		rng:        rand.New(rand.NewSource(spec.Seed)),
	}
	for slot := 0; slot < n; slot++ {
		s.slotParams[slot] = s.paramsForSlot(slot)
	}
	s.slotGroups = make([][][]int, len(spec.Dims))
	for d := range spec.Dims {
		s.slotGroups[d] = grid.GroupsAlong(d)
	}
	s.dimStride = make([]int, len(spec.Dims))
	s.refits = make([]int, len(spec.Dims))
	stride := 1
	for d := len(spec.Dims) - 1; d >= 0; d-- {
		s.dimStride[d] = stride
		stride *= len(spec.Dims[d].Values)
	}
	for i := 0; i < n; i++ {
		r := &Replica{
			ID:     i,
			Slot:   i,
			Params: s.slotParams[i].Clone(),
			Alive:  true,
		}
		engine.InitReplica(r, spec)
		s.replicas[i] = r
		s.replicaAt[i] = i
	}
	s.exWorkers = spec.ExchangeWorkers
	switch {
	case s.exWorkers <= 0:
		s.exWorkers = runtime.GOMAXPROCS(0)
	case s.exWorkers >= 2:
		s.exForce = true
	}
	s.inScratch = make([]bool, n)
	mode := ModeI
	if rt.Cores() < n*spec.CoresPerReplica {
		mode = ModeII
	}
	s.report = &Report{
		Name:            spec.Name,
		DimCode:         spec.DimCode(),
		Pattern:         spec.Pattern,
		Mode:            mode,
		Engine:          engine.Name(),
		Replicas:        n,
		Cores:           rt.Cores(),
		Cycles:          spec.Cycles,
		SlotFingerprint: fnv64Offset,
	}
	if spec.Resume != nil {
		if err := s.applySnapshot(spec.Resume); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// paramsForSlot derives the thermodynamic parameters of a grid slot.
func (s *Simulation) paramsForSlot(slot int) md.Params {
	coord := s.grid.Coord(slot)
	p := md.Params{TemperatureK: s.spec.BaseTemperature, SaltM: s.spec.BaseSalt}
	if p.TemperatureK <= 0 {
		p.TemperatureK = 300
	}
	for d, dim := range s.spec.Dims {
		v := dim.Values[coord[d]]
		switch dim.Type {
		case exchange.Temperature:
			p.TemperatureK = v
		case exchange.Salt:
			p.SaltM = v
		case exchange.PH:
			p.PH = v
		case exchange.Umbrella:
			p.Restraints = append(p.Restraints, md.TorsionRestraint{
				Dihedral: s.engine.TorsionIndex(dim.Torsion),
				Center:   v,
				K:        dim.K,
			})
		}
	}
	return p
}

// Replicas exposes the replica set (read-mostly; used by analysis).
func (s *Simulation) Replicas() []*Replica { return s.replicas }

// Report returns the accumulating run report.
func (s *Simulation) Report() *Report { return s.report }

// Grid returns the replica grid.
func (s *Simulation) Grid() exchange.Grid { return s.grid }

// SlotParams returns the fixed parameters of a slot.
func (s *Simulation) SlotParams(slot int) md.Params { return s.slotParams[slot] }

// finishMD processes one final MD task result: cycle count and energy
// refresh, or replica death. Relaunchable failures never reach this
// point — the dispatcher resubmits them as fresh events (see dispatch),
// so a result that arrives here failed has exhausted its retry budget
// (or runs under FaultDrop) and removes the replica.
func (s *Simulation) finishMD(f *mdFlight, res task.Result, phase *PhaseRecord) {
	r := f.r
	phase.absorb(res)
	s.report.MDExecCoreSeconds += res.Exec * float64(res.Spec.Cores)
	if res.Failed() {
		r.Alive = false
	} else {
		r.Cycle++
		r.Energy = s.engine.OwnEnergy(r)
	}
	if s.reporting() {
		s.emit(MDEvent{At: s.rt.Now(), Replica: r.ID, Cycle: r.Cycle,
			Exec: res.Exec, Failed: res.Failed(), Start: f.start, Finished: res.Finished,
			Dim: f.dim, Pilot: res.Pilot, Retries: f.infra + f.rel})
	}
	if res.Failed() {
		s.emit(FaultEvent{At: s.rt.Now(), Replica: r.ID,
			Kind: FaultKindDrop, Retries: r.Retries})
	}
}

// drainResourceEvents reports the buffered pilot lifecycle events of an
// elastic runtime (one implementing task.ResourceReporter) as
// ResourceEvents. Runtimes without the interface make this a no-op,
// and nothing here touches the RNG stream or the virtual clock.
func (s *Simulation) drainResourceEvents() {
	rr, ok := s.rt.(task.ResourceReporter)
	if !ok {
		return
	}
	for _, ev := range rr.DrainResourceEvents() {
		s.emit(ResourceEvent{At: ev.At, Pilot: ev.Pilot, Kind: ev.Kind,
			Cores: ev.Cores, Delta: ev.Delta, Notice: ev.Notice})
	}
}

// coordAlong returns slot's window index along dimension d.
func (s *Simulation) coordAlong(slot, d int) int {
	return slot / s.dimStride[d] % len(s.spec.Dims[d].Values)
}

// finishExchange books one fired exchange event — its record, its slot
// history row — and reports it as an ExchangeEvent whose Slots share
// the freshly appended history row.
func (s *Simulation) finishExchange(event int, rec *CycleRecord, ph ExchangePhase) {
	s.report.Records = append(s.report.Records, *rec)
	s.report.ExchangeEvents++
	s.snapshotSlots()
	if !s.reporting() {
		return
	}
	pairs := s.pairScratch
	s.pairScratch = nil
	var row []int
	if n := len(s.report.SlotHistory); n > 0 {
		row = s.report.SlotHistory[n-1]
	}
	s.emit(ExchangeEvent{At: s.rt.Now(), Event: event, Cycle: rec.Cycle, Dim: rec.Dim,
		Pairs: pairs, Slots: row, MDWall: rec.MD.Wall, EXWall: rec.EX.Wall, Phase: ph})
	s.flushBus()
}

// pairProbability computes the Metropolis acceptance probability for
// swapping the slots of replicas a and b along dimension d.
func (s *Simulation) pairProbability(d int, a, b *Replica) float64 {
	dim := s.spec.Dims[d]
	betaA := a.Params.Beta()
	betaB := b.Params.Beta()
	if dim.Type == exchange.Temperature {
		return exchange.AcceptTemperature(betaA, betaB, a.Energy, b.Energy)
	}
	// Hamiltonian exchange: cross energies of each configuration under
	// the other's parameters.
	eAA := a.Energy
	eBB := b.Energy
	eAB := s.engine.CrossEnergy(b, a.Params) // A's params on B's coords
	eBA := s.engine.CrossEnergy(a, b.Params) // B's params on A's coords
	return exchange.AcceptHamiltonian(betaA, betaB, eAA, eAB, eBA, eBB)
}

// applySwap exchanges the grid slots (and hence parameters) of two
// replicas. For real engines with a temperature change, velocities are
// rescaled by sqrt(Tnew/Told), the standard T-REMD velocity rescaling.
func (s *Simulation) applySwap(a, b *Replica) {
	oldTa, oldTb := a.Params.TemperatureK, b.Params.TemperatureK
	a.Slot, b.Slot = b.Slot, a.Slot
	s.replicaAt[a.Slot] = a.ID
	s.replicaAt[b.Slot] = b.ID
	a.Params = s.slotParams[a.Slot].Clone()
	b.Params = s.slotParams[b.Slot].Clone()
	if a.State != nil && a.Params.TemperatureK != oldTa {
		scale := math.Sqrt(a.Params.TemperatureK / oldTa)
		for i := range a.State.Vel {
			a.State.Vel[i] = a.State.Vel[i].Scale(scale)
		}
	}
	if b.State != nil && b.Params.TemperatureK != oldTb {
		scale := math.Sqrt(b.Params.TemperatureK / oldTb)
		for i := range b.State.Vel {
			b.State.Vel[i] = b.State.Vel[i].Scale(scale)
		}
	}
}

// snapshotSlots records the replicas' current slot assignment: the row
// is folded into the rolling fingerprint and appended to the report's
// slot history, which Spec.HistoryTail bounds to the most recent rows.
// A rotated-out row's backing array is recycled only when no bus is
// attached — ExchangeEvent.Slots shares the history rows, and a slow
// subscriber's ring may still reference rotated-out rows.
func (s *Simulation) snapshotSlots() {
	hist := s.report.SlotHistory
	tail := s.spec.HistoryTail
	rotate := tail > 0 && len(hist) >= tail
	var row []int
	if rotate && s.spec.Bus == nil {
		row = hist[0][:0]
	} else {
		row = make([]int, 0, len(s.replicas))
	}
	for _, r := range s.replicas {
		row = append(row, r.Slot)
	}
	s.report.SlotFingerprint = fnvRow(s.report.SlotFingerprint, row)
	s.report.SlotRows++
	if rotate {
		copy(hist, hist[1:])
		hist[len(hist)-1] = row
	} else {
		hist = append(hist, row)
	}
	s.report.SlotHistory = hist
}

// aliveReplicas returns the live replicas in ID order.
func (s *Simulation) aliveReplicas() []*Replica {
	var out []*Replica
	for _, r := range s.replicas {
		if r.Alive {
			out = append(out, r)
		}
	}
	return out
}

// budgetedReplicas returns the live replicas that still have MD segments
// left, in ID order. On a fresh run this equals aliveReplicas; after a
// resume, replicas restored at their full segment budget are excluded.
func (s *Simulation) budgetedReplicas(segBudget int) []*Replica {
	var out []*Replica
	for _, r := range s.replicas {
		if r.Alive && r.Cycle < segBudget {
			out = append(out, r)
		}
	}
	return out
}

func (s *Simulation) aliveCount() int {
	n := 0
	for _, r := range s.replicas {
		if r.Alive {
			n++
		}
	}
	return n
}

// collectGroups fills the exchange-group scratch for dimension d with
// the alive replicas for which keep (indexed by replica ID) is true —
// nil keeps every alive replica — dropping groups smaller than minSize.
// It returns the flat member slice and the group boundary offsets:
// group i is members[off[i]:off[i+1]]. Both returned slices alias
// per-simulation scratch and are valid until the next call.
func (s *Simulation) collectGroups(d int, keep []bool, minSize int) ([]*Replica, []int) {
	members := s.exMembers[:0]
	off := s.exOff[:0]
	for _, slots := range s.slotGroups[d] {
		start := len(members)
		for _, slot := range slots {
			r := s.replicas[s.replicaAt[slot]]
			if r.Alive && (keep == nil || keep[r.ID]) {
				members = append(members, r)
			}
		}
		if len(members)-start >= minSize {
			off = append(off, start)
		} else {
			members = members[:start]
		}
	}
	off = append(off, len(members))
	s.exMembers, s.exOff = members, off
	return members, off
}

// liveGroups returns, for dimension d, the exchange groups as slices of
// live replicas ordered by their coordinate along d. Dead replicas are
// skipped, which is what lets the simulation continue across failures.
// The slot grouping comes from the per-dimension cache built in New; the
// returned groups alias per-simulation scratch reused across exchange
// events and are valid until the next call.
func (s *Simulation) liveGroups(d int) [][]*Replica {
	members, off := s.collectGroups(d, nil, 1)
	out := s.groupScratch[:0]
	for i := 0; i+1 < len(off); i++ {
		out = append(out, members[off[i]:off[i+1]:off[i+1]])
	}
	s.groupScratch = out
	return out
}

// minPairsPerWorker gates the default exchange worker pool: below this
// many pairs per worker the goroutine fan-out costs more than the
// acceptance math it parallelizes, so small events stay serial. An
// explicit Spec.ExchangeWorkers >= 2 bypasses the gate.
const minPairsPerWorker = 256

// evalPairProbs fills probs[i] with the Metropolis acceptance
// probability of pairs[i] along dimension d, fanning the energy math
// across the bounded worker pool when the event is large enough (or
// sharding is forced). Probability evaluation is read-only over disjoint
// replica pairs — pairProbability touches only the pair's two replicas,
// and Engine.CrossEnergy implementations are pure — so the result is
// bit-identical to the serial loop for any worker count.
func (s *Simulation) evalPairProbs(d int, pairs []exchange.Pair, probs []float64) {
	workers := s.exWorkers
	if !s.exForce && workers > len(pairs)/minPairsPerWorker {
		workers = len(pairs) / minPairsPerWorker
	}
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers <= 1 {
		for i, pr := range pairs {
			probs[i] = s.pairProbability(d, s.replicas[pr.I], s.replicas[pr.J])
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(pairs) + workers - 1) / workers
	for lo := 0; lo < len(pairs); lo += chunk {
		hi := lo + chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				pr := pairs[i]
				probs[i] = s.pairProbability(d, s.replicas[pr.I], s.replicas[pr.J])
			}
		}(lo, hi)
	}
	wg.Wait()
}

// floatScratch returns a length-n slice, reusing s's backing when it is
// large enough.
func floatScratch(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
