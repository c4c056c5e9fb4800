package serve_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/serve"
)

// TestReportStreamsPinned pins what the dispatcher reports on three
// shipped configs run the way repexd runs them (serve.Prepare with a
// Server attached, so bus, collector and recorder all listen): the
// sha256 of the flight recorder's Chrome trace export and of the
// ordered bus stream, each event rendered as its Go type plus its JSON
// encoding (the payload SSE clients and the collector see). Together
// the three runs cover the barrier and multi-pilot chaos (resource and
// fault events), online respacing (controller and respace spans) and a
// salt dimension under per-dimension feedback control (SPE sub-spans).
func TestReportStreamsPinned(t *testing.T) {
	cases := []struct {
		sim, res   string
		trace, bus string
		// covers names event types and span kinds the run must report,
		// so the pin cannot pass on a stream that lost a kind entirely.
		covers []string
	}{
		{"chaos_sim_small.json", "chaos_small.json",
			"f45780d487718e51da4b5dbea1acb7b88e4eba03f8d7f525764fa70abd9ee2e1",
			"c544f12e29542a56b57d61a1ebc8dcbe94795d84ceba7c745b9a8cd47b20074a",
			[]string{"core.ResourceEvent", "core.FaultEvent", "resource", "fault", "exchange", "pairs"}},
		{"respace_small.json", "small_cluster_16.json",
			"3356d99b59639a97b8ff43544692f2e1dc05e22018e352d7d3bf3e2663d99e61",
			"e83e91e44b58488055681a64757e246174d017784f0ab69fdeb4d0a35ddfda2a",
			[]string{"core.RespaceEvent", "respace", "controller"}},
		{"feedback_tsu.json", "small_cluster_16.json",
			"54b24193b51fe7502cad64cfe3abc3824261ac817bf552cbeb53f25e4b10a8a7",
			"e1a68e8467510b373307d66eb4c0dddcf5c016e0c7818f555d683eeaaef48cf7",
			[]string{"core.ExchangeEvent", "spe", "controller"}},
	}
	for _, tc := range cases {
		t.Run(tc.sim, func(t *testing.T) {
			gotTrace, gotBus, seen := reportStreams(t, tc.sim, tc.res)
			for _, k := range tc.covers {
				if seen[k] == 0 {
					t.Errorf("the run reported no %s", k)
				}
			}
			if gotTrace != tc.trace {
				t.Errorf("trace export sha256 %s, pinned %s", gotTrace, tc.trace)
			}
			if gotBus != tc.bus {
				t.Errorf("bus stream sha256 %s, pinned %s", gotBus, tc.bus)
			}
		})
	}
}

// reportStreams runs one config pair to completion and returns the
// hashes of its trace export and bus stream, plus a count per bus
// event type and per span kind.
func reportStreams(t *testing.T, sim, res string) (traceSum, busSum string, seen map[string]int) {
	t.Helper()
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "..", "configs", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	l := &config.Launch{}
	var err error
	if l.Sim, err = config.ParseSimulation(read(sim)); err != nil {
		t.Fatal(err)
	}
	if l.Res, err = config.DecodeResource(read(res)); err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	run, err := serve.Prepare(l, serve.Attach{Server: true})
	if err != nil {
		t.Fatal(err)
	}
	sub := run.Spec().Bus.Subscribe(1 << 18)
	if _, err := run.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("pinning subscriber dropped %d events", sub.Dropped())
	}
	seen = map[string]int{}
	h := sha256.New()
	for _, ev := range sub.Drain(nil) {
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%T %s\n", ev, data)
		seen[fmt.Sprintf("%T", ev)]++
	}
	rec := run.Spec().Tracer
	if rec.Dropped() != 0 {
		t.Fatalf("flight recorder dropped %d spans", rec.Dropped())
	}
	for _, sp := range rec.Snapshot() {
		seen[sp.Kind.String()]++
	}
	export, err := rec.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(export)), fmt.Sprintf("%x", h.Sum(nil)), seen
}
