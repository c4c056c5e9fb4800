// Command perfbench is the repository's layer-ledger benchmark. It runs
// one named workload through the program's packages for a fixed time,
// checks every run's outputs and prints one JSON object as the last
// line of standard output.
//
// With --trace 0 every run is untimed (no decorators) and the object
// carries the end-to-end metrics. With --trace 1 untimed and traced
// runs alternate; the traced runs wrap the runtime, the engine, every
// MD Run closure and the checkpoint hook in timing decorators, and the
// object carries the per-layer metrics. See README.md.
//
//	perfbench --workload sync-16k --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: real-tuu, sync-16k or observed-chaos")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "1 prints the per-layer metrics of traced runs, 0 the end-to-end metrics")
	scratch := flag.String("scratch", ".bench_build/tmp", "directory for checkpoint and trace files")
	flag.Parse()

	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fail(err)
	}
	dir, err := os.MkdirTemp(*scratch, "perfbench-")
	if err != nil {
		fail(err)
	}
	w, err := newWorkload(*name, *seed, false, dir)
	if err != nil {
		fail(err)
	}
	res, err := measure(*name, w, time.Duration(*seconds*float64(time.Second)), *traced == 1)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(1)
		}
	}
	line, err2 := json.Marshal(res)
	if err2 != nil {
		fail(err2)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// measure runs the workload for at least d, and at least once, after
// one checked warm-up run: untimed runs only, or with traced set,
// untimed and traced runs in alternation. A failed check returns the
// result with Correct false and the error; a run error returns no
// result.
func measure(name string, w workload, d time.Duration, traced bool) (*result, error) {
	first, err := w.rep(nil)
	if err != nil {
		return nil, err
	}
	if err := w.check(first); err != nil {
		return &result{Attempted: first.segments + first.dropped, Failed: first.dropped, Metrics: map[string]metric{}}, err
	}
	var untimed, timed []*rep
	var ledgers []*ledger
	res := &result{Correct: true, Metrics: map[string]metric{}}
	add := func(r *rep) error {
		res.Attempted += r.segments + r.dropped
		res.Failed += r.dropped
		if err := w.check(r); err != nil {
			return err
		}
		return sameOutcome(name, first, r)
	}
	for start := time.Now(); len(untimed) == 0 || time.Since(start) < d; {
		r, err := w.rep(nil)
		if err != nil {
			return nil, err
		}
		if err := add(r); err != nil {
			res.Correct = false
			return res, err
		}
		untimed = append(untimed, r)
		if !traced {
			continue
		}
		l := &ledger{}
		r, err = w.rep(l)
		if err != nil {
			return nil, err
		}
		if err := add(r); err != nil {
			res.Correct = false
			return res, err
		}
		timed = append(timed, r)
		ledgers = append(ledgers, l)
	}
	if traced {
		res.Metrics = layerMetrics(untimed, timed, ledgers)
	} else {
		res.Metrics = endToEndMetrics(untimed)
	}
	return res, nil
}
