package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/respace"
	"repro/internal/runner"
)

// respaceSmallParams loads the committed respace walkthrough config
// (the pair the respace smoke runs) with the collector-backed planner
// wired exactly the way cmd/repex wires it.
func respaceSmallParams(t *testing.T) (runner.Params, **core.Simulation) {
	t.Helper()
	simData, err := os.ReadFile(filepath.Join("..", "..", "configs", "respace_small.json"))
	if err != nil {
		t.Fatal(err)
	}
	simFile, err := config.ParseSimulation(simData)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := simFile.ToSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Respace == nil {
		t.Fatal("configs/respace_small.json does not enable respacing")
	}
	resData, err := os.ReadFile(filepath.Join("..", "..", "configs", "small_cluster_16.json"))
	if err != nil {
		t.Fatal(err)
	}
	machine, ps, err := config.ParseResource(resData)
	if err != nil {
		t.Fatal(err)
	}
	spec.Bus = core.NewBus()
	col := analysis.New(analysis.ConfigFromSpec(spec))
	col.Attach(spec.Bus, analysis.RunBuffer(spec))
	spec.Respace.Planner = respace.NewPlanner(col)
	simPtr := new(*core.Simulation)
	return runner.Params{
		Spec:          spec,
		Cluster:       machine,
		PilotCores:    ps.Cores,
		PilotWalltime: ps.Walltime,
		Pilots:        ps.Pilots,
		NewEngine: func(seed int64) core.Engine {
			return engines.NewNamedVirtual(simFile.Engine, simFile.Atoms, seed)
		},
		Seed:    spec.Seed,
		OnStart: func(s *core.Simulation) { *simPtr = s },
	}, simPtr
}

// TestRespaceSmallGolden locks the committed respace walkthrough to its
// golden slot fingerprint: the mis-spaced ladder must refit at least
// once, the post-refit trajectory is bit-reproducible, and any change
// to the respacing pipeline that moves the refit (different event,
// different grid) shows up as a fingerprint diff against
// configs/respace_small.golden.
func TestRespaceSmallGolden(t *testing.T) {
	run := func() (*core.Report, []core.RespaceRecord) {
		p, simPtr := respaceSmallParams(t)
		rep, err := runner.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return rep, (*simPtr).RespaceHistory()
	}
	a, histA := run()
	if a.Dropped != 0 {
		t.Fatalf("respace-small dropped %d replicas, want 0", a.Dropped)
	}
	if len(histA) == 0 {
		t.Fatal("respace-small never refitted its ladder")
	}
	b, histB := run()
	if a.SlotFingerprint != b.SlotFingerprint || a.SlotRows != b.SlotRows {
		t.Fatalf("respace-small not reproducible: %d rows %016x vs %d rows %016x",
			a.SlotRows, a.SlotFingerprint, b.SlotRows, b.SlotFingerprint)
	}
	if len(histA) != len(histB) || histA[0].Event != histB[0].Event {
		t.Fatalf("refit schedule not reproducible: %+v vs %+v", histA, histB)
	}

	golden, err := os.ReadFile(filepath.Join("..", "..", "configs", "respace_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%d %016x", a.SlotRows, a.SlotFingerprint)
	if want := strings.TrimSpace(string(golden)); got != want {
		t.Fatalf("slot history diverged from configs/respace_small.golden: got %q, want %q\n"+
			"(if the change is intentional, update the golden file)", got, want)
	}
}
