package config

import (
	"encoding/json"
	"fmt"
)

// Launch is one run request: one simulation plus the resource it runs
// on, optionally resuming from a checkpoint file and writing new
// checkpoints while running. It is the JSON body of a repexd POST /runs
// request; cmd/repex builds the same value from its two files and flags.
type Launch struct {
	// Sim is the simulation block, in the exact shape of a simulation
	// config file.
	Sim *Simulation `json:"sim"`
	// Res is the resource block, in the exact shape of a resource
	// config file.
	Res *Resource `json:"res"`
	// Resume is a checkpoint file path on the host running the
	// simulation to resume from (empty: start fresh).
	Resume string `json:"resume,omitempty"`
	// Checkpoint is the file path the run writes its snapshots to —
	// periodically every CheckpointEvery events, and always at the
	// cancellation boundary. Empty disables checkpointing.
	Checkpoint string `json:"checkpoint,omitempty"`
	// CheckpointEvery is the exchange-event period of periodic
	// snapshots (0 with a Checkpoint path: only the cancellation
	// snapshot is written).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// ParseLaunch decodes and validates a run-launch request body (see
// Validate).
func ParseLaunch(data []byte) (*Launch, error) {
	var l Launch
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("config: %v", err)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return &l, nil
}

// Validate checks a launch the way both front ends need it: both blocks
// present, the simulation normalized (defaults + spec dry run), the
// resource resolved, and the checkpoint period non-negative and backed
// by a checkpoint path. ParseLaunch calls it on a decoded request body;
// cmd/repex calls it on the launch it assembles from its two files and
// flags.
func (l *Launch) Validate() error {
	if l.Sim == nil {
		return fmt.Errorf("config: launch request needs a \"sim\" block")
	}
	if l.Res == nil {
		return fmt.Errorf("config: launch request needs a \"res\" block")
	}
	if err := l.Sim.Normalize(); err != nil {
		return err
	}
	if _, _, err := l.Res.Resolve(); err != nil {
		return err
	}
	if l.CheckpointEvery < 0 {
		return fmt.Errorf("config: checkpoint_every must be non-negative")
	}
	if l.CheckpointEvery > 0 && l.Checkpoint == "" {
		return fmt.Errorf("config: checkpoint_every without a checkpoint path")
	}
	return nil
}

// Daemon is the JSON shape of a repexd daemon config file (every key
// optional; flags override).
type Daemon struct {
	// Listen is the daemon's host:port (default "127.0.0.1:8600"; port
	// 0 picks a free port).
	Listen string `json:"listen,omitempty"`
	// TotalCores bounds the process-wide core pool shared by all
	// concurrent runs: a run whose pilot_cores do not fit is rejected
	// with 429. 0 means unbounded.
	TotalCores int `json:"total_cores,omitempty"`
	// MaxRuns bounds concurrently active (non-terminal) runs. 0 means
	// unbounded.
	MaxRuns int `json:"max_runs,omitempty"`
	// DrainTimeoutSec bounds the graceful SIGTERM drain: cancelled runs
	// that have not reached a terminal state by then are abandoned.
	// 0 selects the default 30 s.
	DrainTimeoutSec float64 `json:"drain_timeout_sec,omitempty"`
	// TraceEvents is the per-run flight-recorder capacity in spans:
	// every launched run records its most recent TraceEvents spans,
	// served as Chrome trace-event JSON at GET /runs/{id}/trace. 0
	// selects the recorder's default depth.
	TraceEvents int `json:"trace_events,omitempty"`
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. Off by
	// default: profile endpoints are CPU-heavy to collect and expose
	// binary layout, so enable them only on trusted listeners.
	Pprof bool `json:"pprof,omitempty"`
}

// ParseDaemon decodes and validates a daemon config file.
func ParseDaemon(data []byte) (*Daemon, error) {
	var d Daemon
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("config: %v", err)
	}
	if err := d.Normalize(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Normalize applies the daemon defaults and validates the values.
func (d *Daemon) Normalize() error {
	if d.Listen == "" {
		d.Listen = "127.0.0.1:8600"
	}
	if d.TotalCores < 0 {
		return fmt.Errorf("config: total_cores must be non-negative")
	}
	if d.MaxRuns < 0 {
		return fmt.Errorf("config: max_runs must be non-negative")
	}
	if d.DrainTimeoutSec < 0 {
		return fmt.Errorf("config: drain_timeout_sec must be non-negative")
	}
	if d.DrainTimeoutSec == 0 {
		d.DrainTimeoutSec = 30
	}
	if d.TraceEvents < 0 {
		return fmt.Errorf("config: trace_events must be non-negative")
	}
	return nil
}
