package serve_test

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// TestRegistryRejectsRunawayResume: a checkpoint whose RNG position is
// far beyond anything the run could have drawn must fail the launch
// promptly — not spin replaying draws while it holds pool cores.
func TestRegistryRejectsRunawayResume(t *testing.T) {
	reg, ts := newDaemon(t, 8, 0)
	ck := filepath.Join(t.TempDir(), "runaway.ckpt")
	sim := simBody("runaway", 8, 4, 5)
	st, code := postRun(t, ts.URL, launchBody(sim, resBody8,
		fmt.Sprintf(`"checkpoint": %q, "checkpoint_every": 1`, ck)))
	if code != http.StatusCreated {
		t.Fatalf("launch: %d", code)
	}
	if st := waitFor(t, ts.URL, st.ID, func(s serve.RunStatus) bool { return terminal(s.State) }, "terminal state"); st.State != "completed" {
		t.Fatalf("checkpointing run reached %q, want completed", st.State)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	sn.RNGDraws = 1 << 62
	if data, err = sn.Encode(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ck, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, code = postRun(t, ts.URL, launchBody(sim, resBody8, fmt.Sprintf(`"resume": %q`, ck)))
	if code != http.StatusCreated {
		t.Fatalf("resume launch: %d", code)
	}
	run, _ := reg.Get(st.ID)
	select {
	case <-run.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("runaway resume still running after 10 s")
	}
	if _, err := run.Result(); err == nil || !strings.Contains(err.Error(), "rng_draws") {
		t.Fatalf("runaway resume ended with %v, want an rng_draws error", err)
	}
	if got := run.State(); got != core.RunFailed {
		t.Fatalf("runaway resume reached %v, want failed", got)
	}
	// Execute returns the run's pool cores before Done closes.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Pool().Used() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("failed run still holds %d pool cores", reg.Pool().Used())
		}
		time.Sleep(time.Millisecond)
	}
}
