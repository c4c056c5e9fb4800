package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadLogLevelRejected: an unknown -log-level fails the command line
// instead of silently logging at some default threshold.
func TestBadLogLevelRejected(t *testing.T) {
	if _, err := parseArgs([]string{"-log-level", "loud"}); err == nil || !strings.Contains(err.Error(), "-log-level") {
		t.Fatalf("parseArgs(-log-level loud) = %v, want a -log-level error", err)
	}
	o, err := parseArgs([]string{"-log-level", "warn", "-max-runs", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if o.maxRuns != 3 || o.totalCores != -1 {
		t.Fatalf("parsed %+v, want max-runs 3 and total-cores left at -1", o)
	}
}

// TestFlagsOverrideConfigFile: a flag replaces the config file's value,
// and an unset flag (-1 for the counts, empty for -listen) keeps it.
func TestFlagsOverrideConfigFile(t *testing.T) {
	cfg := filepath.Join(t.TempDir(), "daemon.json")
	if err := os.WriteFile(cfg, []byte(`{"listen": "127.0.0.1:9001", "total_cores": 64, "max_runs": 4, "trace_events": 128}`), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := options{cfgPath: cfg, totalCores: -1, maxRuns: -1}.daemon()
	if err != nil {
		t.Fatal(err)
	}
	if d.Listen != "127.0.0.1:9001" || d.TotalCores != 64 || d.MaxRuns != 4 || d.TraceEvents != 128 {
		t.Fatalf("file only: %+v", d)
	}
	d, err = options{cfgPath: cfg, listen: "127.0.0.1:9002", totalCores: 0, maxRuns: 7}.daemon()
	if err != nil {
		t.Fatal(err)
	}
	if d.Listen != "127.0.0.1:9002" || d.TotalCores != 0 || d.MaxRuns != 7 || d.TraceEvents != 128 {
		t.Fatalf("flags over file: %+v", d)
	}

	// Without a file the daemon defaults apply, still under the flags.
	d, err = options{totalCores: 16, maxRuns: -1}.daemon()
	if err != nil {
		t.Fatal(err)
	}
	if d.Listen != "127.0.0.1:8600" || d.TotalCores != 16 || d.MaxRuns != 0 || d.DrainTimeoutSec != 30 {
		t.Fatalf("defaults under flags: %+v", d)
	}

	if _, err := (options{cfgPath: filepath.Join(t.TempDir(), "missing.json")}).daemon(); err == nil {
		t.Fatal("a missing config file was accepted")
	}
}
