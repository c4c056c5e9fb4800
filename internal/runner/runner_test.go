package runner

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/pilot"
)

func params(pilots int, chaos *pilot.ChaosPlan) Params {
	return Params{
		Spec: &core.Spec{
			Name:            "runner",
			Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, 4)}},
			CoresPerReplica: 1,
			StepsPerCycle:   2000,
			Cycles:          2,
			Seed:            3,
		},
		Cluster:    cluster.Small(1, 8),
		PilotCores: 4,
		Pilots:     pilots,
		Chaos:      chaos,
		NewEngine:  func(seed int64) core.Engine { return engines.NewAmberVirtual(2881, seed) },
		Seed:       3,
	}
}

// TestRunSplitsPilots: the same run completes on one failover pilot and
// on two pilots behind a MultiRuntime, and rejects a split that leaves
// a pilot without cores or a chaos plan that does not validate.
func TestRunSplitsPilots(t *testing.T) {
	for _, pilots := range []int{1, 2} {
		rep, err := Run(params(pilots, nil))
		if err != nil {
			t.Fatalf("%d pilots: %v", pilots, err)
		}
		if rep.Replicas != 4 || rep.SlotRows != 2 || rep.Cores != 4 {
			t.Fatalf("%d pilots: %d replicas, %d slot rows on %d cores; want 4, 2, 4",
				pilots, rep.Replicas, rep.SlotRows, rep.Cores)
		}
	}
	if _, err := Run(params(5, nil)); err == nil || !strings.Contains(err.Error(), "cannot cover") {
		t.Fatalf("4 cores over 5 pilots: got %v, want a cannot-cover error", err)
	}
	bad := &pilot.ChaosPlan{Events: []pilot.ChaosEvent{{At: -1, Kind: pilot.ChaosNodeLoss, Cores: 1}}}
	if _, err := Run(params(1, bad)); err == nil {
		t.Fatal("invalid chaos plan accepted")
	}
}
