package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func configPath(name string) string { return filepath.Join("..", "..", "configs", name) }

// runCLI executes one run through the command's own run path.
func runCLI(t *testing.T, o options) (*core.Report, string) {
	t.Helper()
	var out bytes.Buffer
	rep, err := run(context.Background(), o, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return rep, out.String()
}

// checkGolden compares a report's slot history with a committed golden
// fingerprint file.
func checkGolden(t *testing.T, rep *core.Report, golden string) {
	t.Helper()
	data, err := os.ReadFile(configPath(golden))
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprintf("%d %016x", rep.SlotRows, rep.SlotFingerprint)
	if want := strings.TrimSpace(string(data)); got != want {
		t.Fatalf("slot history %q diverged from configs/%s %q", got, golden, want)
	}
}

// TestChaosGolden: the committed chaos plan reproduces its golden slot
// history through the CLI, with and without the observers a checkpoint
// attaches.
func TestChaosGolden(t *testing.T) {
	o := options{simPath: configPath("chaos_sim_small.json"), resPath: configPath("chaos_small.json"),
		preemptNotice: -1, ckptEvery: 1}
	rep, out := runCLI(t, o)
	checkGolden(t, rep, "chaos_small.golden")
	if !strings.Contains(out, "dropped=0") || strings.Contains(out, "mixing:") {
		t.Fatalf("plain run summary unexpected:\n%s", out)
	}

	o.ckptPath = filepath.Join(t.TempDir(), "chaos.ckpt")
	rep, out = runCLI(t, o)
	checkGolden(t, rep, "chaos_small.golden")
	if !strings.Contains(out, "mixing:") {
		t.Fatalf("checkpointed run printed no collector statistics:\n%s", out)
	}
	data, err := os.ReadFile(o.ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Events != rep.ExchangeEvents || len(sn.Analysis) == 0 {
		t.Fatalf("last checkpoint at event %d with %d analysis bytes, want event %d with analysis state",
			sn.Events, len(sn.Analysis), rep.ExchangeEvents)
	}
}

// TestRespaceGolden: the mis-spaced ladder refits through the CLI exactly
// as the committed golden history says, and the summary reports it; a
// -trace recorder rides along without perturbing the run.
func TestRespaceGolden(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "respace.trace.json")
	rep, out := runCLI(t, options{simPath: configPath("respace_small.json"),
		resPath: configPath("small_cluster_16.json"), preemptNotice: -1, ckptEvery: 1, tracePath: tracePath})
	checkGolden(t, rep, "respace_small.golden")
	if !strings.Contains(out, "RESPACED dim 0") {
		t.Fatalf("no RESPACED line in the summary:\n%s", out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var export struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &export); err != nil || len(export.TraceEvents) == 0 {
		t.Fatalf("trace file holds %d events (decode error %v)", len(export.TraceEvents), err)
	}
}

// TestListenServesAfterCompletion: with -listen the run's own server
// answers /status while the run executes and after it completes, until
// the context (SIGINT/SIGTERM in the binary) is cancelled.
func TestListenServesAfterCompletion(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		_, err := run(ctx, options{simPath: configPath("feedback_small.json"),
			resPath: configPath("small_cluster_16.json"), preemptNotice: -1, ckptEvery: 1,
			listen: "127.0.0.1:0"}, pw)
		pw.Close()
		errc <- err
	}()
	addr := ""
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "status server listening on http://"); ok {
			addr = strings.Fields(rest)[0]
		}
		if strings.HasPrefix(line, "run finished; still serving") {
			break
		}
	}
	if addr == "" {
		t.Fatal("no listening address printed")
	}
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st struct{ State, Trigger string }
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.State != "completed" || st.Trigger != "feedback" {
		t.Fatalf("/status after completion: %+v (decode error %v), want completed under feedback", st, err)
	}
	cancel()
	go io.Copy(io.Discard, pr)
	if err := <-errc; err != nil {
		t.Fatalf("run returned %v after the serving phase was cancelled", err)
	}
}

// TestCheckpointEveryZero: -checkpoint-every 0 writes only the
// cancellation snapshot, so a run that completes leaves no file; a
// negative period is rejected, as in a repexd launch body.
func TestCheckpointEveryZero(t *testing.T) {
	o := options{simPath: configPath("chaos_sim_small.json"), resPath: configPath("chaos_small.json"),
		preemptNotice: -1, ckptPath: filepath.Join(t.TempDir(), "none.ckpt")}
	runCLI(t, o)
	if _, err := os.Stat(o.ckptPath); !os.IsNotExist(err) {
		t.Fatalf("completed run with -checkpoint-every 0 wrote a checkpoint (stat: %v)", err)
	}
	o.ckptEvery = -1
	if _, err := run(context.Background(), o, &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), "non-negative") {
		t.Fatalf("negative -checkpoint-every: got %v, want a non-negative error", err)
	}
}

// TestResumeErrorsNamePath: an unusable -resume file fails before the
// run starts, and the error names the file.
func TestResumeErrorsNamePath(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.ckpt")
	garbage := filepath.Join(dir, "garbage.ckpt")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(garbage, []byte("{not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(dir, "missing.ckpt"), empty, garbage} {
		var out bytes.Buffer
		rep, err := run(context.Background(), options{simPath: configPath("chaos_sim_small.json"),
			resPath: configPath("chaos_small.json"), preemptNotice: -1, resumePath: path}, &out)
		if err == nil || !strings.Contains(err.Error(), path) {
			t.Errorf("-resume %s: got %v, want an error naming the path", filepath.Base(path), err)
		}
		if rep != nil || out.Len() != 0 {
			t.Errorf("-resume %s: run started (report %v, output %q)", filepath.Base(path), rep != nil, out.String())
		}
	}
}

// TestCancelThenResumeGolden: a run cancelled before it starts (the
// SIGINT path) stops before its first exchange event and, even with
// -checkpoint-every 0, leaves the cancellation snapshot; resuming from it
// completes the golden slot history.
func TestCancelThenResumeGolden(t *testing.T) {
	o := options{simPath: configPath("chaos_sim_small.json"), resPath: configPath("chaos_small.json"),
		preemptNotice: -1, ckptPath: filepath.Join(t.TempDir(), "cancel.ckpt")}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if _, err := run(ctx, o, &out); !errors.Is(err, core.ErrRunCancelled) {
		t.Fatalf("cancelled run returned %v, want ErrRunCancelled", err)
	}
	if !strings.Contains(out.String(), "cancelled; resume with -resume "+o.ckptPath) {
		t.Fatalf("no resume hint in the output:\n%s", out.String())
	}
	rep, out2 := runCLI(t, options{simPath: o.simPath, resPath: o.resPath, preemptNotice: -1, resumePath: o.ckptPath})
	if !strings.Contains(out2, `resuming "chaos-small" from snapshot at exchange event 0`) {
		t.Fatalf("resume banner missing:\n%s", out2)
	}
	checkGolden(t, rep, "chaos_small.golden")
}
