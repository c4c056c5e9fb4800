package core

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Snapshot is a serializable checkpoint of a running simulation, taken
// after an exchange event. Together with the original Spec (same
// dimensions, seed and trigger) it restores the run exactly: replica
// slots, completed cycles, energies and synthetic coordinates, the
// orchestrator's RNG position, and the report counters accumulated so
// far. Runs longer than one pilot walltime chain through snapshots:
// kill, resume, repeat.
//
// RNG state is stored as a draw count and restored by replaying that
// many draws from the spec seed, which keeps the snapshot format
// independent of math/rand's internal state while remaining exact.
type Snapshot struct {
	// Version is the snapshot format version.
	Version int `json:"version"`
	// Name echoes Spec.Name for sanity checks.
	Name string `json:"name"`
	// Trigger names the exchange-trigger policy the run executed under;
	// resuming under a different policy is rejected.
	Trigger string `json:"trigger"`
	// TriggerData is the serialized controller state of a
	// StatefulTrigger policy (e.g. FeedbackTrigger's rolling outcome
	// window and controlled window length); empty for stateless
	// policies. Restored in dispatch so resumed runs make the same
	// trigger decisions as the uninterrupted run.
	TriggerData json.RawMessage `json:"trigger_data,omitempty"`
	// Events is the number of exchange events fired before the snapshot.
	Events int `json:"events"`
	// Elapsed is the virtual run time consumed before the snapshot
	// (capture time minus run start); resumed reports offset their start
	// by it so Makespan and Utilization stay cumulative.
	Elapsed float64 `json:"elapsed"`
	// RNGDraws is the orchestrator RNG position (uniforms consumed).
	RNGDraws int64 `json:"rng_draws"`
	// EngineDraws is the engine RNG position for ReplayableEngine
	// implementations; -1 when the engine does not support replay.
	EngineDraws int64 `json:"engine_draws"`
	// Replicas holds the per-replica state in ID order.
	Replicas []ReplicaState `json:"replicas"`
	// SlotHistory is the slot assignment after each exchange event so
	// far — bounded to the most recent rows when Spec.HistoryTail is set
	// — so a resumed run's report carries the retained history.
	SlotHistory [][]int `json:"slot_history"`
	// SlotRows and SlotFingerprint carry the full-history row count and
	// rolling fingerprint (see Report), so resume equivalence holds even
	// when HistoryTail rotated early rows out of SlotHistory. A zero
	// fingerprint marks a pre-fingerprint snapshot; both are then
	// recomputed from SlotHistory on resume.
	SlotRows        int    `json:"slot_rows,omitempty"`
	SlotFingerprint uint64 `json:"slot_fingerprint,omitempty"`
	// Report counters accumulated before the snapshot.
	Dropped           int     `json:"dropped"`
	Relaunches        int     `json:"relaunches"`
	MDExecCoreSeconds float64 `json:"md_exec_core_seconds"`
	// Analysis is the serialized state of an online-analysis collector
	// (internal/analysis), attached by the OnSnapshot callback so
	// exchange statistics survive checkpoint/restart. Opaque to core.
	Analysis json.RawMessage `json:"analysis,omitempty"`
	// DimValues holds every dimension's window values at capture time,
	// recorded once a ladder re-fit has changed them from the spec's
	// originals; resume restores the refitted grid before replica
	// parameters are rebuilt. Empty for runs that never respaced.
	DimValues [][]float64 `json:"dim_values,omitempty"`
	// Respacings is the applied refit history at capture time, so a
	// resumed run's status surfaces and per-dimension refit budgets
	// continue where the interrupted run stopped.
	Respacings []RespaceRecord `json:"respacings,omitempty"`
}

// ReplicaState is the serializable state of one replica.
type ReplicaState struct {
	ID      int       `json:"id"`
	Slot    int       `json:"slot"`
	Cycle   int       `json:"cycle"`
	Energy  float64   `json:"energy"`
	Synth   []float64 `json:"synth,omitempty"`
	Alive   bool      `json:"alive"`
	Retries int       `json:"retries"`
}

// SnapshotVersion is the current snapshot format version.
const SnapshotVersion = 1

// ReplayableEngine is implemented by engines whose stochastic state can
// be captured as a draw count and restored by replaying it from the
// engine's seed (the virtual cost-model engines). Engines that do not
// implement it still resume — energies and synthetic coordinates come
// from the snapshot — but their post-resume random stream is fresh, so
// bit-exact continuation is not guaranteed.
type ReplayableEngine interface {
	// RNGDraws returns the number of draws consumed so far.
	RNGDraws() int64
	// ReplayRNG resets the engine RNG to its seed and replays n draws.
	ReplayRNG(n int64)
}

// Encode serializes the snapshot to JSON.
func (sn *Snapshot) Encode() ([]byte, error) {
	return json.MarshalIndent(sn, "", " ")
}

// DecodeSnapshot parses a snapshot produced by Encode.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var sn Snapshot
	if err := json.Unmarshal(data, &sn); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %v", err)
	}
	if sn.Version != SnapshotVersion {
		return nil, fmt.Errorf("core: snapshot version %d, want %d", sn.Version, SnapshotVersion)
	}
	if sn.RNGDraws < 0 {
		return nil, fmt.Errorf("core: snapshot rng_draws %d is negative", sn.RNGDraws)
	}
	if sn.EngineDraws < -1 {
		return nil, fmt.Errorf("core: snapshot engine_draws %d is below -1", sn.EngineDraws)
	}
	return &sn, nil
}

// captureSnapshot builds a checkpoint of the current state; called by
// the dispatcher right after an exchange event completes. It fails when
// a stateful trigger cannot serialize its controller state: writing a
// checkpoint without it would resume with a fresh controller and
// silently break resume determinism.
func (s *Simulation) captureSnapshot(tr Trigger, events int) (*Snapshot, error) {
	sn := &Snapshot{
		Version:           SnapshotVersion,
		Name:              s.spec.Name,
		Trigger:           tr.Name(),
		Events:            events,
		Elapsed:           s.rt.Now() - s.report.Start,
		RNGDraws:          s.rngDraws,
		EngineDraws:       -1,
		Replicas:          make([]ReplicaState, len(s.replicas)),
		SlotHistory:       make([][]int, len(s.report.SlotHistory)),
		SlotRows:          s.report.SlotRows,
		SlotFingerprint:   s.report.SlotFingerprint,
		Dropped:           s.report.Dropped,
		Relaunches:        s.report.Relaunches,
		MDExecCoreSeconds: s.report.MDExecCoreSeconds,
	}
	if re, ok := s.engine.(ReplayableEngine); ok {
		sn.EngineDraws = re.RNGDraws()
	}
	if st, ok := tr.(StatefulTrigger); ok {
		data, err := st.EncodeState()
		if err != nil {
			return nil, fmt.Errorf("core: encoding %q trigger state for snapshot: %v", tr.Name(), err)
		}
		sn.TriggerData = data
	}
	for i, r := range s.replicas {
		sn.Replicas[i] = ReplicaState{
			ID:      r.ID,
			Slot:    r.Slot,
			Cycle:   r.Cycle,
			Energy:  r.Energy,
			Synth:   append([]float64(nil), r.Synth...),
			Alive:   r.Alive,
			Retries: r.Retries,
		}
	}
	for i, row := range s.report.SlotHistory {
		sn.SlotHistory[i] = append([]int(nil), row...)
	}
	if hist := s.RespaceHistory(); len(hist) > 0 {
		sn.Respacings = hist
		sn.DimValues = s.LadderValues()
	}
	return sn, nil
}

// maybeSnapshot captures and delivers a checkpoint when the spec asks
// for one at this exchange-event count.
func (s *Simulation) maybeSnapshot(tr Trigger, events int) error {
	if s.spec.SnapshotEvery <= 0 || s.spec.OnSnapshot == nil {
		return nil
	}
	if events%s.spec.SnapshotEvery != 0 {
		return nil
	}
	sn, err := s.captureSnapshot(tr, events)
	if err != nil {
		return err
	}
	s.spec.OnSnapshot(sn)
	if s.reporting() {
		s.emit(CheckpointEvent{At: s.rt.Now(), Event: events})
	}
	return nil
}

// applySnapshot restores replica and RNG state from a checkpoint; called
// from New after the fresh replica set is built.
func (s *Simulation) applySnapshot(sn *Snapshot) error {
	if sn.Name != s.spec.Name {
		return fmt.Errorf("core: snapshot belongs to simulation %q, resuming %q",
			sn.Name, s.spec.Name)
	}
	if len(sn.Replicas) != len(s.replicas) {
		return fmt.Errorf("core: snapshot has %d replicas, spec %q has %d",
			len(sn.Replicas), s.spec.Name, len(s.replicas))
	}
	// Both RNG positions are restored by replaying draws, so bound them
	// by what the run could have consumed: the dispatcher draws one
	// uniform per attempted pair and an event attempts fewer pairs than
	// there are replicas; a ReplayableEngine draws at most len(Dims)+1
	// variates per replica initialisation and per completed segment.
	// A corrupt count would otherwise spin the replay loop for ages.
	n := float64(len(s.replicas))
	if float64(sn.RNGDraws) > float64(sn.Events)*n {
		return fmt.Errorf("core: snapshot rng_draws %d exceeds %d events x %d replicas",
			sn.RNGDraws, sn.Events, len(s.replicas))
	}
	segments := 0.0
	for _, rs := range sn.Replicas {
		segments += math.Max(float64(rs.Cycle), 0)
	}
	if float64(sn.EngineDraws) > (n+segments)*float64(len(s.spec.Dims)+1) {
		return fmt.Errorf("core: snapshot engine_draws %d exceeds what %d replicas and %.0f completed segments can draw",
			sn.EngineDraws, len(s.replicas), segments)
	}
	// Restore a respaced grid before replica parameters are cloned from
	// slotParams below: the snapshot's values replace the spec's
	// originals, exactly as applyRespace left them. A grid that differs
	// from the spec's must still be a sane refit of it.
	if len(sn.DimValues) > 0 {
		if len(sn.DimValues) != len(s.spec.Dims) {
			return fmt.Errorf("core: snapshot carries %d dimension grids, spec %q has %d",
				len(sn.DimValues), s.spec.Name, len(s.spec.Dims))
		}
		for d, vals := range sn.DimValues {
			spec := s.spec.Dims[d].Values
			if len(vals) != len(spec) {
				return fmt.Errorf("core: snapshot dimension %d has %d windows, spec %q has %d",
					d, len(vals), s.spec.Name, len(spec))
			}
			if !slices.Equal(vals, spec) && !respaceSane(spec, vals) {
				return fmt.Errorf("core: snapshot dimension %d grid %v is not a monotone ladder inside the spec's [%g, %g] envelope",
					d, vals, spec[0], spec[len(spec)-1])
			}
		}
		for d, vals := range sn.DimValues {
			s.spec.Dims[d].Values = append([]float64(nil), vals...)
		}
		for slot := range s.slotParams {
			s.slotParams[slot] = s.paramsForSlot(slot)
		}
	}
	if len(sn.Respacings) > 0 {
		s.respacings = make([]RespaceRecord, len(sn.Respacings))
		copy(s.respacings, sn.Respacings)
		for _, rec := range sn.Respacings {
			if rec.Dim >= 0 && rec.Dim < len(s.refits) {
				s.refits[rec.Dim]++
			}
		}
	}
	seenSlot := make([]bool, len(s.replicas))
	seenID := make([]bool, len(s.replicas))
	for _, rs := range sn.Replicas {
		if rs.ID < 0 || rs.ID >= len(s.replicas) || seenID[rs.ID] {
			return fmt.Errorf("core: snapshot replica ID %d out of range or duplicated", rs.ID)
		}
		seenID[rs.ID] = true
		if rs.Slot < 0 || rs.Slot >= len(s.replicas) || seenSlot[rs.Slot] {
			return fmt.Errorf("core: snapshot slots are not a permutation (slot %d)", rs.Slot)
		}
		seenSlot[rs.Slot] = true
		r := s.replicas[rs.ID]
		r.Slot = rs.Slot
		r.Cycle = rs.Cycle
		r.Energy = rs.Energy
		r.Alive = rs.Alive
		r.Retries = rs.Retries
		if len(rs.Synth) > 0 {
			r.Synth = append([]float64(nil), rs.Synth...)
		}
		r.Params = s.slotParams[r.Slot].Clone()
		s.replicaAt[r.Slot] = r.ID
	}
	// Replay the orchestrator RNG to its snapshot position.
	s.rng = rand.New(rand.NewSource(s.spec.Seed))
	for i := int64(0); i < sn.RNGDraws; i++ {
		s.rng.Float64()
	}
	s.rngDraws = sn.RNGDraws
	if re, ok := s.engine.(ReplayableEngine); ok && sn.EngineDraws >= 0 {
		re.ReplayRNG(sn.EngineDraws)
	}
	s.resumeEvents = sn.Events
	s.resumeElapsed = sn.Elapsed
	s.resumed = true
	s.report.Dropped = sn.Dropped
	s.report.Relaunches = sn.Relaunches
	s.report.MDExecCoreSeconds = sn.MDExecCoreSeconds
	s.report.ExchangeEvents = sn.Events
	s.report.SlotHistory = make([][]int, len(sn.SlotHistory))
	for i, row := range sn.SlotHistory {
		s.report.SlotHistory[i] = append([]int(nil), row...)
	}
	if sn.SlotFingerprint != 0 {
		s.report.SlotRows = sn.SlotRows
		s.report.SlotFingerprint = sn.SlotFingerprint
	} else {
		// Pre-fingerprint snapshot: its history is complete (HistoryTail
		// did not exist), so both values derive from the stored rows.
		s.report.SlotRows = len(sn.SlotHistory)
		s.report.SlotFingerprint = HistoryFingerprint(sn.SlotHistory)
	}
	// A resumed history longer than the tail (snapshot taken without one,
	// or with a larger one) is trimmed so the bound holds from the start.
	if tail := s.spec.HistoryTail; tail > 0 && len(s.report.SlotHistory) > tail {
		s.report.SlotHistory = s.report.SlotHistory[len(s.report.SlotHistory)-tail:]
	}
	return nil
}
