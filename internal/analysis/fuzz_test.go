package analysis_test

import (
	"encoding/json"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/task"
)

// fuzzConfig is the collector shape FuzzCollectorRestore restores into:
// a 3x2 grid, so both exchange dimensions carry neighbour pairs.
func fuzzConfig() analysis.Config {
	return analysis.Config{DimSizes: []int{3, 2}, Replicas: 6, WindowEvents: 8}
}

// driveCollector feeds one of every event kind the collector consumes,
// enough exchange events to wrap the pair windows and the slot traces.
func driveCollector(col *analysis.Collector) {
	col.Apply(core.MDEvent{Replica: 0, Exec: 5})
	col.Apply(core.MDEvent{Replica: 1, Exec: 7200, Failed: true})
	col.Apply(core.FaultEvent{Replica: 2, Kind: core.FaultKindRelaunch, Retries: 1, Exec: 3})
	col.Apply(core.FaultEvent{Replica: 1, Kind: core.FaultKindDrop, Retries: 3})
	col.Apply(core.ResourceEvent{Pilot: 0, Cores: 8, Kind: task.ResourcePreempt})
	perms := [][]int{{1, 0, 2, 3, 5, 4}, {0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}}
	for e := 0; e < 70; e++ {
		col.Apply(core.ExchangeEvent{
			Event: e, Dim: e % 2, EXWall: float64(e) / 10,
			Pairs: []core.PairOutcome{
				{Lo: 0, Hi: 1, Accepted: e%3 == 0},
				{Lo: 1, Hi: 2, Accepted: e%2 == 0},
				{Lo: 0, Hi: 2, Accepted: true},
			},
			Slots: perms[e%len(perms)],
		})
	}
}

// FuzzCollectorRestore throws arbitrary bytes at Collector.Restore —
// collector state arrives in checkpoint files, which a resume reads as
// untrusted input — and requires it either to return an error or to
// leave a collector that survives every event kind, snapshots, and
// re-encodes to a state it accepts again, all without panicking. The
// corpus is seeded with real EncodeState output and with the histogram
// shape that once crashed the first post-resume MDEvent.
func FuzzCollectorRestore(f *testing.F) {
	fresh := analysis.New(fuzzConfig())
	data, err := fresh.EncodeState()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	driveCollector(fresh)
	if data, err = fresh.EncodeState(); err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	var st map[string]json.RawMessage
	if err := json.Unmarshal(data, &st); err != nil {
		f.Fatal(err)
	}
	st["md_exec"] = json.RawMessage(`{"bounds":[1,2,3],"counts":[]}`)
	crasher, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(crasher)

	f.Fuzz(func(t *testing.T, data []byte) {
		col := analysis.New(fuzzConfig())
		if err := col.Restore(data); err != nil {
			return
		}
		driveCollector(col)
		col.Snapshot()
		out, err := col.EncodeState()
		if err != nil {
			t.Fatalf("encoding a restored collector: %v", err)
		}
		if err := analysis.New(fuzzConfig()).Restore(out); err != nil {
			t.Fatalf("collector rejects its own state: %v", err)
		}
	})
}
