package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/localexec"
	"repro/internal/task"
)

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer, workloads []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	return endToEnd, perLayer, workloads
}

func sameNames(t *testing.T, what string, metrics map[string]metric, want []string) {
	t.Helper()
	var got []string
	for name := range metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: printed %v, BENCHMARK.json declares %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: printed %v, BENCHMARK.json declares %v", what, got, want)
		}
	}
}

// TestToyWorkloads runs every workload at toy size in both modes: all
// output checks pass, the traced runs make the same decisions as the
// untimed ones, and the printed metric names are exactly the declared
// ones.
func TestToyWorkloads(t *testing.T) {
	endToEnd, perLayer, declared := benchmarkNames(t)
	if len(declared) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declared, workloadNames)
	}
	for i, name := range workloadNames {
		if declared[i] != name {
			t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", declared, workloadNames)
		}
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				w, err := newWorkload(name, 5, true, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				res, err := measure(name, w, 0, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				if traced {
					sameNames(t, name+" per-layer", res.Metrics, perLayer)
				} else {
					sameNames(t, name+" end-to-end", res.Metrics, endToEnd)
				}
			}
		})
	}
}

// reporter is a runtime stub that buffers resource events.
type reporter struct{ task.Runtime }

func (reporter) DrainResourceEvents() []task.ResourceEvent { return nil }

// TestDecoratorsKeepOptionalInterfaces: core type-asserts
// task.ResourceReporter on its runtime and core.ReplayableEngine on its
// engine, so the timing decorators must expose exactly what they wrap.
func TestDecoratorsKeepOptionalInterfaces(t *testing.T) {
	l := &ledger{}
	if _, ok := wrapRuntime(localexec.New(1), l).(task.ResourceReporter); ok {
		t.Fatal("wrapped localexec runtime claims to report resource events")
	}
	if _, ok := wrapRuntime(reporter{}, l).(task.ResourceReporter); !ok {
		t.Fatal("wrapped runtime hides task.ResourceReporter")
	}
	if _, ok := wrapEngine(engines.NewAmberVirtual(100, 1), l).(core.ReplayableEngine); !ok {
		t.Fatal("wrapped virtual engine hides core.ReplayableEngine")
	}
	eng, err := engines.NewReal("amber", nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wrapEngine(eng, l).(core.ReplayableEngine); ok {
		t.Fatal("wrapped real engine claims to be replayable")
	}
}

// TestSameOutcomeDetectsDivergence: the non-interference check fails
// when a run's decisions differ.
func TestSameOutcomeDetectsDivergence(t *testing.T) {
	a := &rep{fingerprint: 1, events: 2}
	b := *a
	if err := sameOutcome("x", a, &b); err != nil {
		t.Fatal(err)
	}
	b.fingerprint = 3
	if sameOutcome("x", a, &b) == nil {
		t.Fatal("differing fingerprints passed the non-interference check")
	}
}
