package core

import (
	"sync"
	"sync/atomic"
)

// Typed event bus: the dispatcher's report path (emit, in spine.go)
// queues every MD completion, exchange event, fault action, pilot
// lifecycle change and ladder re-fit on it, and online consumers (the
// analysis collector, the status server, SSE streams, tests) subscribe
// without ever touching the hot loop's control flow. Publish is
// strictly non-blocking: each subscriber owns a bounded ring buffer,
// and when a slow consumer lets its ring fill up the oldest events are
// overwritten (and counted as dropped) rather than stalling the
// publisher. A stalled subscriber therefore cannot change the
// simulation's behaviour — only its own view of it.
//
// Fields tagged json:"-" are detail for the flight recorder and the
// triggers; the bus carries them in memory, but they never reach an
// SSE payload.

// Event is one fact the dispatcher reports: MDEvent, ExchangeEvent,
// FaultEvent, ResourceEvent, RespaceEvent or CheckpointEvent. All but
// CheckpointEvent are also published on the Bus.
type Event interface {
	// When is the virtual runtime time the event was reported at.
	When() float64
}

// MDEvent records one finally-processed MD segment (a successful
// completion, or a terminal failure that exhausted its retry budget).
// Relaunched attempts appear as FaultEvents instead.
type MDEvent struct {
	At float64
	// Replica is the replica ID; Cycle its completed-segment count after
	// this segment.
	Replica int
	Cycle   int
	// Exec is the segment's execution time in runtime seconds.
	Exec float64
	// Failed marks a terminal failure (the replica was dropped).
	Failed bool
	// Start is the segment's first submission and Finished its final
	// attempt's completion; Dim is the dimension it was submitted under,
	// Pilot the pilot that ran the final attempt and Retries the
	// relaunches and resource-loss resubmissions it absorbed.
	Start    float64 `json:"-"`
	Finished float64 `json:"-"`
	Dim      int     `json:"-"`
	Pilot    int     `json:"-"`
	Retries  int     `json:"-"`
}

// Latency is At − Start. The asynchronous family reports each segment
// as it completes, so there it is the segment's completion latency,
// every relaunch retry and queueing delay included.
func (e MDEvent) Latency() float64 { return e.At - e.Start }

// When returns the publication time.
func (e MDEvent) When() float64 { return e.At }

// PairOutcome is one attempted exchange between ladder neighbours along
// the event's dimension.
type PairOutcome struct {
	// Lo and Hi are the window (coordinate) indices of the two partners
	// along the exchange dimension, Lo < Hi. With all replicas alive they
	// are adjacent (Hi == Lo+1); failures can pair across gaps.
	Lo, Hi int
	// ReplicaI and ReplicaJ are the partner replica IDs.
	ReplicaI, ReplicaJ int
	// Accepted reports whether the swap was taken.
	Accepted bool
}

// ExchangeEvent records one completed exchange event: the Metropolis
// outcomes of every attempted pair and the slot assignment afterwards.
type ExchangeEvent struct {
	At float64
	// Event is the exchange-event index (row in the slot history).
	Event int
	// Cycle and Dim locate the event in the simulation schedule.
	Cycle int
	Dim   int
	// Pairs are the attempted exchanges of this event.
	Pairs []PairOutcome
	// Slots is the slot per replica ID after the event. The slice is
	// shared with the report's slot history: consumers must not mutate it.
	Slots []int
	// MDWall and EXWall are the MD-collection and exchange-phase wall
	// times of the event's record.
	MDWall, EXWall float64
	// Phase times the exchange phase for the flight recorder.
	Phase ExchangePhase `json:"-"`
}

// ExchangePhase is the timeline of one exchange phase. All times are
// runtime clock instants; the phase ends at its ExchangeEvent's At.
type ExchangePhase struct {
	// Ran reports the phase ran (false under Spec.DisableExchange);
	// Start is when it began.
	Ran   bool
	Start float64
	// Attempted and Accepted count the phase's pairs.
	Attempted, Accepted int
	// SPETasks counts the single-point-energy tasks of a salt
	// dimension's wave, which ran from SPEStart to SPEEnd.
	SPETasks         int
	SPEStart, SPEEnd float64
	// Swept reports the Metropolis pair sweep ran (some exchange group
	// had two live participants); SweepStart is when it began.
	Swept      bool
	SweepStart float64
}

// When returns the publication time.
func (e ExchangeEvent) When() float64 { return e.At }

// Fault-event kinds.
const (
	// FaultKindRelaunch is a replica failure resubmitted under
	// FaultRelaunch (consumes the replica's retry budget).
	FaultKindRelaunch = "relaunch"
	// FaultKindResourceLost is a resubmission after pilot walltime expiry
	// (infrastructure fault; does not consume the replica budget).
	FaultKindResourceLost = "resource-lost"
	// FaultKindDrop is a terminal failure that removed the replica.
	FaultKindDrop = "drop"
	// FaultKindCancelled is an in-flight MD segment discarded by run
	// cancellation; its segment is redone on resume.
	FaultKindCancelled = "cancelled"
)

// ResourceEvent mirrors one task.ResourceEvent on the bus: a pilot
// lifecycle change (launch, node-loss shrink, preemption notice,
// resize, expiry) drained from an elastic runtime.
type ResourceEvent struct {
	At float64
	// Pilot is the routing slot (multi-pilot) or failover generation
	// (single-pilot) of the affected pilot.
	Pilot int
	// Kind is one of the task.Resource* kind strings ("launch",
	// "shrink", "preempt", "resize", "expire").
	Kind string
	// Cores is the pilot's core count after the change; Delta the
	// signed change.
	Cores int
	Delta int
	// Notice is the preemption notice window in seconds (preempt only).
	Notice float64
}

// When returns the publication time.
func (e ResourceEvent) When() float64 { return e.At }

// FaultEvent records one fault-handling action.
type FaultEvent struct {
	At      float64
	Replica int
	// Kind is one of the FaultKind constants.
	Kind string
	// Retries is the replica's consumed retry budget (relaunch/drop) or
	// the segment's resource-loss resubmission count.
	Retries int
	// Exec is the failed attempt's execution time for relaunch kinds
	// (the attempt never reaches an MDEvent, so overhead consumers pick
	// it up here); 0 for drops, whose exec is on the terminal MDEvent.
	Exec float64
}

// When returns the publication time.
func (e FaultEvent) When() float64 { return e.At }

// RespaceEvent records one online ladder re-fit: a saturated dimension's
// window values were replaced by the flat-acceptance re-fit at a
// checkpoint boundary. Consumers must not mutate the value slices.
type RespaceEvent struct {
	At float64
	// Event is the exchange-event index the refit fired after.
	Event int
	// Dim is the re-fitted exchange dimension; Refit its refit ordinal
	// for this run (1 for the dimension's first refit).
	Dim   int
	Refit int
	// Old and New are the dimension's window values before and after.
	Old []float64
	New []float64
}

// When returns the publication time.
func (e RespaceEvent) When() float64 { return e.At }

// CheckpointEvent records one snapshot delivered to Spec.OnSnapshot. It
// is reported to the trigger and the flight recorder but never
// published on the bus.
type CheckpointEvent struct {
	At float64
	// Event is the exchange-event count the snapshot was taken at.
	Event int
	// Cancel marks the final snapshot of a cancelled run.
	Cancel bool
}

// When returns the delivery time.
func (e CheckpointEvent) When() float64 { return e.At }

// Bus fans events out to subscribers. The zero value is not usable; use
// NewBus. A nil *Bus is a valid "disabled" bus for Spec.Bus.
type Bus struct {
	mu        sync.Mutex // guards Subscribe (writers of subs)
	subs      atomic.Pointer[[]*Subscription]
	published atomic.Uint64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// Subscribe registers a consumer with a ring buffer of the given
// capacity (minimum 1; a non-positive value selects 1024). Events
// published while the ring is full overwrite the oldest entry.
func (b *Bus) Subscribe(buffer int) *Subscription {
	if buffer <= 0 {
		buffer = 1024
	}
	s := &Subscription{ring: make([]Event, buffer)}
	b.mu.Lock()
	var subs []*Subscription
	if old := b.subs.Load(); old != nil {
		subs = append(subs, *old...)
	}
	subs = append(subs, s)
	b.subs.Store(&subs)
	b.mu.Unlock()
	return s
}

// Unsubscribe removes a subscription registered with Subscribe; events
// published afterwards are no longer delivered to it. Removing a
// subscription that is not registered (or removing twice) is a no-op.
// Long-lived buses with transient consumers (e.g. SSE streams) must
// unsubscribe, or their rings stay reachable forever.
func (b *Bus) Unsubscribe(target *Subscription) {
	if b == nil || target == nil {
		return
	}
	b.mu.Lock()
	if old := b.subs.Load(); old != nil {
		subs := make([]*Subscription, 0, len(*old))
		for _, s := range *old {
			if s != target {
				subs = append(subs, s)
			}
		}
		b.subs.Store(&subs)
	}
	b.mu.Unlock()
}

// Publish delivers ev to every subscriber without blocking: full rings
// drop their oldest event. Safe for concurrent use; the subscriber list
// is read lock-free to keep the hot loop's cost at one atomic load.
func (b *Bus) Publish(ev Event) {
	b.published.Add(1)
	if subs := b.subs.Load(); subs != nil {
		for _, s := range *subs {
			s.push(ev)
		}
	}
}

// PublishBatch delivers evs in order to every subscriber, taking each
// subscriber's ring lock once per batch instead of once per event. The
// dispatcher batches the MD, fault and exchange records of a collection
// round this way so per-pair outcome fan-out does not serialize the hot
// path at production replica counts.
func (b *Bus) PublishBatch(evs []Event) {
	if len(evs) == 0 {
		return
	}
	b.published.Add(uint64(len(evs)))
	if subs := b.subs.Load(); subs != nil {
		for _, s := range *subs {
			s.pushBatch(evs)
		}
	}
}

// Published returns the number of events published so far.
func (b *Bus) Published() uint64 {
	if b == nil {
		return 0
	}
	return b.published.Load()
}

// Subscription is one consumer's bounded view of the bus.
type Subscription struct {
	mu      sync.Mutex
	ring    []Event
	head    int // index of the oldest buffered event
	n       int // buffered events
	dropped uint64
}

func (s *Subscription) push(ev Event) {
	s.mu.Lock()
	s.pushLocked(ev)
	s.mu.Unlock()
}

func (s *Subscription) pushBatch(evs []Event) {
	s.mu.Lock()
	for _, ev := range evs {
		s.pushLocked(ev)
	}
	s.mu.Unlock()
}

func (s *Subscription) pushLocked(ev Event) {
	if s.n == len(s.ring) {
		s.ring[s.head] = ev
		s.head = (s.head + 1) % len(s.ring)
		s.dropped++
	} else {
		s.ring[(s.head+s.n)%len(s.ring)] = ev
		s.n++
	}
}

// Drain appends all buffered events to dst in publication order and
// empties the ring. Drained slots are cleared so consumed events (and
// their payload slices) do not stay reachable from a large ring.
func (s *Subscription) Drain(dst []Event) []Event {
	s.mu.Lock()
	for i := 0; i < s.n; i++ {
		j := (s.head + i) % len(s.ring)
		dst = append(dst, s.ring[j])
		s.ring[j] = nil
	}
	s.head, s.n = 0, 0
	s.mu.Unlock()
	return dst
}

// Dropped returns the number of events this subscriber lost to ring
// overflow.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
