package pilot

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/task"
)

// DefaultLoadDecayTau is the e-folding time, in virtual seconds, of the
// completed-work load estimate used by MultiRuntime routing.
const DefaultLoadDecayTau = 300.0

// DefaultAffinityBonus is the load discount granted to the pilot that
// last successfully ran a replica's task (staging affinity: its inputs
// are already on that machine's filesystem).
const DefaultAffinityBonus = 0.05

// MultiRuntime adapts pilots to the task.Runtime interface. It
// schedules one REMD workload across one or more pilots on (possibly
// different) machines at once — the paper's final named extension
// ("RepEx can be extended to use multiple HPC resources simultaneously
// for a single REMD simulation", §5). A single pilot is a one-slot
// MultiRuntime. All pilots must live in the same simulation
// environment, and all methods must be called from the bound
// orchestrator process, mirroring RepEx's single-threaded
// execution-management module.
//
// Routing is weighted least-loaded over two signals: the core-width
// currently in flight on each pilot, plus an exponentially decaying
// estimate of recently completed core work. Both are kept per routing
// slot, not per pilot incarnation, so a failover relaunch inherits its
// slot's history instead of looking idle and attracting a thundering
// herd. A staging-affinity discount prefers the pilot that last ran a
// replica (its staged inputs are already there).
type MultiRuntime struct {
	pilots []*Pilot
	proc   *sim.Proc
	// queue holds completed watched units, in virtual-time completion
	// order, until AwaitNext drains them; arrivals wakes it.
	queue    []*Unit
	arrivals *sim.Signal
	// OverheadTotal accumulates client-side overhead (T_RepEx-over).
	OverheadTotal float64
	// Failover, when set, replaces an expired or draining pilot in
	// place (same machine, same description, fresh batch-queue wait)
	// the next time a submission would route to it. When unset, dead
	// pilots are simply skipped and the surviving allocations absorb
	// the work.
	Failover bool
	// LoadDecayTau is the e-folding time (virtual seconds) of the
	// completed-work estimate; 0 selects DefaultLoadDecayTau.
	LoadDecayTau float64
	// AffinityBonus is the staging-affinity load discount; 0 selects
	// DefaultAffinityBonus, negative disables affinity.
	AffinityBonus float64
	// routed counts tasks per pilot slot, for balance inspection.
	routed []int
	// inflight tracks core-width submitted but not yet completed per
	// slot. It is decremented as routed units complete, so pilot
	// failures (whose units all fail, completing them) drain it
	// naturally — no reset on relaunch.
	inflight []int
	// recent / recentAt implement the per-slot decaying completed-work
	// estimate (core-width units, e-folding over LoadDecayTau).
	recent   []float64
	recentAt []float64
	// lastPilot remembers which pilot instance last successfully ran
	// each replica, for the staging-affinity discount. Instance
	// pointers, not slots: a relaunched pilot has lost the staged data.
	// Only written with more than one pilot: with a single candidate
	// the discount cannot change a routing choice.
	lastPilot map[int]*Pilot
	// relaunched counts replacement pilots launched by failover.
	relaunched int
	// retired holds replaced pilots, with their slot, until their
	// remaining resource events (the drain-then-expire of a preempted
	// pilot) are drained.
	retired []retiredPilot
}

// retiredPilot is a pilot failover replaced, kept with its routing slot
// until its last resource events are drained.
type retiredPilot struct {
	pl   *Pilot
	slot int
}

// NewMultiRuntime binds pilots to an orchestrator process. At least one
// pilot is required and all must share the orchestrator's environment.
func NewMultiRuntime(proc *sim.Proc, pilots ...*Pilot) (*MultiRuntime, error) {
	if len(pilots) == 0 {
		return nil, fmt.Errorf("pilot: multi-runtime needs at least one pilot")
	}
	for i, pl := range pilots {
		if pl.env != proc.Env() {
			return nil, fmt.Errorf("pilot: pilot %d lives in a different simulation environment", i)
		}
	}
	return newMultiRuntime(proc, pilots), nil
}

// NewRuntime binds a single pilot to an orchestrator process: a
// one-slot MultiRuntime without failover.
func NewRuntime(pl *Pilot, proc *sim.Proc) *MultiRuntime {
	return newMultiRuntime(proc, []*Pilot{pl})
}

// NewFailoverRuntime launches a pilot from desc on cl and binds it to
// proc as a one-slot MultiRuntime with Failover set: when the pilot
// expires or drains, the next submission launches a replacement with
// the same description.
func NewFailoverRuntime(cl *cluster.Cluster, desc Description, proc *sim.Proc) (*MultiRuntime, error) {
	pl, err := Launch(cl, desc)
	if err != nil {
		return nil, err
	}
	m := NewRuntime(pl, proc)
	m.Failover = true
	return m, nil
}

func newMultiRuntime(proc *sim.Proc, pilots []*Pilot) *MultiRuntime {
	return &MultiRuntime{
		pilots:    pilots,
		proc:      proc,
		arrivals:  sim.NewSignal(proc.Env()),
		routed:    make([]int, len(pilots)),
		inflight:  make([]int, len(pilots)),
		recent:    make([]float64, len(pilots)),
		recentAt:  make([]float64, len(pilots)),
		lastPilot: make(map[int]*Pilot),
	}
}

// PilotAt returns the pilot currently occupying routing slot i (the
// chaos driver's lookup: after a failover relaunch the slot holds the
// replacement).
func (m *MultiRuntime) PilotAt(i int) *Pilot {
	if i < 0 || i >= len(m.pilots) {
		return nil
	}
	return m.pilots[i]
}

// Routed returns how many tasks each pilot slot received.
func (m *MultiRuntime) Routed() []int { return append([]int(nil), m.routed...) }

// InFlightCores returns the core-width submitted but not yet completed
// per slot (for tests and balance inspection).
func (m *MultiRuntime) InFlightCores() []int { return append([]int(nil), m.inflight...) }

// Now returns the shared virtual time.
func (m *MultiRuntime) Now() float64 { return m.proc.Now() }

// Cores returns the aggregate current core count across all pilots.
func (m *MultiRuntime) Cores() int {
	n := 0
	for _, pl := range m.pilots {
		n += pl.Cores()
	}
	return n
}

// decayTau returns the configured or default decay constant.
func (m *MultiRuntime) decayTau() float64 {
	if m.LoadDecayTau > 0 {
		return m.LoadDecayTau
	}
	return DefaultLoadDecayTau
}

// affinityBonus returns the configured or default staging-affinity
// discount (0 when disabled).
func (m *MultiRuntime) affinityBonus() float64 {
	switch {
	case m.AffinityBonus > 0:
		return m.AffinityBonus
	case m.AffinityBonus < 0:
		return 0
	default:
		return DefaultAffinityBonus
	}
}

// decayedRecent folds the elapsed-time decay into slot i's completed
// work estimate and returns it.
func (m *MultiRuntime) decayedRecent(i int) float64 {
	now := m.proc.Now()
	if dt := now - m.recentAt[i]; dt > 0 {
		m.recent[i] *= math.Exp(-dt / m.decayTau())
		m.recentAt[i] = now
	}
	return m.recent[i]
}

// RecentLoad returns slot i's decayed completed-work estimate in
// core-width units (for tests and balance inspection).
func (m *MultiRuntime) RecentLoad(i int) float64 { return m.decayedRecent(i) }

// Submit routes the task to the pilot whose relative load — in-flight
// core-width plus the decaying completed-work estimate, over current
// capacity, minus the staging-affinity discount when the pilot last ran
// this replica — would stay lowest. Tasks wider than a pilot are only
// routed to pilots that fit them. Expired and draining pilots are
// replaced in place when Failover is set and skipped otherwise; if no
// live candidate remains the task is submitted to the least-loaded dead
// one and fails fast, which the scheduler's resubmission cap converts
// into replica drops.
func (m *MultiRuntime) Submit(s *task.Spec) task.Handle { return m.submit(s, false) }

// SubmitWatched routes the task like Submit and registers it on the
// completion stream for delivery by AwaitNext.
func (m *MultiRuntime) SubmitWatched(s *task.Spec) task.Handle { return m.submit(s, true) }

func (m *MultiRuntime) submit(s *task.Spec, watched bool) *Unit {
	best, bestLoad := -1, 0.0
	bestAny, bestAnyLoad := -1, 0.0 // fallback incl. expired pilots
	bonus := m.affinityBonus()
	for i := range m.pilots {
		pl := m.pilots[i]
		if m.Failover && (pl.Expired() || pl.Draining()) && s.Cores <= pl.desc.Cores {
			if npl, err := Launch(pl.cl, pl.desc); err == nil {
				m.retired = append(m.retired, retiredPilot{pl: pl, slot: i})
				m.pilots[i] = npl
				m.relaunched++
				pl = npl
			}
		}
		// Fit against the nominal size for dead pilots (fail-fast
		// fallback) and the current size for live ones.
		if s.Cores > pl.desc.Cores && s.Cores > pl.Cores() {
			continue
		}
		capacity := pl.Cores()
		if capacity <= 0 {
			capacity = pl.desc.Cores
		}
		load := (float64(m.inflight[i]) + m.decayedRecent(i) + float64(s.Cores)) / float64(capacity)
		if bonus > 0 && m.lastPilot[s.ReplicaID] == pl {
			load -= bonus
		}
		if bestAny < 0 || load < bestAnyLoad {
			bestAny, bestAnyLoad = i, load
		}
		if pl.Expired() || pl.Draining() || s.Cores > pl.Cores() {
			continue
		}
		if best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	if best < 0 {
		best = bestAny
	}
	if best < 0 {
		panic(fmt.Sprintf("pilot: task %q (%d cores) fits no pilot", s.Name, s.Cores))
	}
	m.routed[best]++
	m.inflight[best] += s.Cores
	u := m.pilots[best].SubmitUnit(s)
	// Stamp the routing slot and the completion hook (race-free: the
	// unit's process starts only after the orchestrator yields).
	u.res.Pilot = best
	u.rt = m
	u.watched = watched
	return u
}

// complete is called by a routed unit's lifecycle process once the unit
// reaches DONE or FAILED: it settles the slot's in-flight width, feeds
// the decayed completed-work estimate, remembers the replica's last
// home for staging affinity (successful runs only — a killed unit left
// no usable outputs behind) and queues watched units for AwaitNext.
func (m *MultiRuntime) complete(u *Unit) {
	slot, cores := u.res.Pilot, u.spec.Cores
	m.inflight[slot] -= cores
	if u.res.Err == nil {
		m.recent[slot] = m.decayedRecent(slot) + float64(cores)
		if len(m.pilots) > 1 {
			m.lastPilot[u.spec.ReplicaID] = u.pl
		}
	}
	if u.watched {
		m.queue = append(m.queue, u)
		m.arrivals.Broadcast()
	}
}

// Relaunched reports how many replacement pilots failover has launched.
func (m *MultiRuntime) Relaunched() int { return m.relaunched }

// DrainResourceEvents returns and clears buffered pilot lifecycle
// events across current and retired pilots, stamped with their routing
// slot and merged into occurrence order (task.ResourceReporter).
// Fully drained retired pilots are dropped, so a long run cannot
// accumulate dead pilots.
func (m *MultiRuntime) DrainResourceEvents() []task.ResourceEvent {
	var ev []task.ResourceEvent
	kept := m.retired[:0]
	for _, r := range m.retired {
		ev = appendEvents(ev, r.pl, r.slot)
		if !r.pl.Expired() {
			kept = append(kept, r)
		}
	}
	m.retired = kept
	for i, pl := range m.pilots {
		ev = appendEvents(ev, pl, i)
	}
	// Stable insertion sort by time: the per-drain batches are tiny and
	// already near-sorted.
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j].At < ev[j-1].At; j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
	return ev
}

// appendEvents appends pl's buffered resource events to ev, stamped
// with its routing slot.
func appendEvents(ev []task.ResourceEvent, pl *Pilot, slot int) []task.ResourceEvent {
	pe := pl.TakeEvents()
	for i := range pe {
		pe[i].Pilot = slot
	}
	return append(ev, pe...)
}

// Await blocks the orchestrator until the unit finishes.
func (m *MultiRuntime) Await(h task.Handle) task.Result {
	u := h.(*Unit)
	u.done.Await(m.proc)
	return u.res
}

// AwaitAll blocks until all units finish.
func (m *MultiRuntime) AwaitAll(hs []task.Handle) []task.Result {
	res := make([]task.Result, len(hs))
	for i, h := range hs {
		res[i] = m.Await(h)
	}
	return res
}

// AwaitNext blocks until a watched unit completion is pending delivery
// or the absolute deadline passes, draining the stream in completion
// order.
func (m *MultiRuntime) AwaitNext(deadline float64) []task.Handle {
	for len(m.queue) == 0 {
		if math.IsInf(deadline, 1) {
			m.arrivals.Wait(m.proc)
			continue
		}
		remain := deadline - m.proc.Now()
		if remain <= 0 {
			return nil
		}
		m.arrivals.WaitTimeout(m.proc, remain)
	}
	out := make([]task.Handle, len(m.queue))
	for i, u := range m.queue {
		out[i] = u
	}
	m.queue = m.queue[:0]
	return out
}

// Overhead charges client-side overhead to the virtual clock.
func (m *MultiRuntime) Overhead(d float64) {
	if d <= 0 {
		return
	}
	m.OverheadTotal += d
	m.proc.Sleep(d)
}

// SleepUntil blocks the orchestrator until virtual time t.
func (m *MultiRuntime) SleepUntil(t float64) {
	if d := t - m.proc.Now(); d > 0 {
		m.proc.Sleep(d)
	}
}

var (
	_ task.Runtime          = (*MultiRuntime)(nil)
	_ task.ResourceReporter = (*MultiRuntime)(nil)
)
