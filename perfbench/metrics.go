package main

import (
	"sort"
)

// median returns the median of vs (0 for none).
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile of vs by linear interpolation between
// closest ranks (0 for none).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// medianOf applies f to every run and returns the median.
func medianOf(rs []*rep, f func(*rep) float64) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = f(r)
	}
	return median(vs)
}

// endToEndMetrics summarises untimed runs: each metric is the median
// over runs of its per-run value.
func endToEndMetrics(rs []*rep) map[string]metric {
	return map[string]metric{
		"segments_per_s": {medianOf(rs, func(r *rep) float64 { return float64(r.segments) / r.wallS }), "1/s"},
		"setup_s":        {medianOf(rs, func(r *rep) float64 { return r.setupS }), "s"},
		"alloc_bytes_per_segment": {medianOf(rs, func(r *rep) float64 {
			return float64(r.allocBytes) / float64(r.segments)
		}), "B"},
		"heap_live_mb": {medianOf(rs, func(r *rep) float64 { return float64(r.heapLiveBytes) / 1e6 }), "MB"},
	}
}

// layerMetrics summarises the traced runs (per-run values, median over
// runs) next to the latency distributions and failure share of the
// untimed runs they alternated with.
func layerMetrics(untimed, timed []*rep, ledgers []*ledger) map[string]metric {
	led := make(map[*rep]*ledger, len(timed))
	for i, r := range timed {
		led[r] = ledgers[i]
	}
	per := func(unit string, f func(r *rep, l *ledger) float64) metric {
		return metric{medianOf(timed, func(r *rep) float64 { return f(r, led[r]) }), unit}
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	msec := func(ns int64) float64 { return float64(ns) / 1e6 }
	local := func(r *rep) bool { return r.workers > 0 }
	// onLocal and onPilot attribute the runtime decorator's figures to
	// the runtime the workload actually ran on.
	onLocal := func(r *rep, v float64) float64 {
		if local(r) {
			return v
		}
		return 0
	}
	onPilot := func(r *rep, v float64) float64 {
		if local(r) {
			return 0
		}
		return v
	}
	obs := func(r *rep, f func(o *observed) float64) float64 {
		if r.obs == nil {
			return 0
		}
		return f(r.obs)
	}
	// self is the run's wall time minus every timed call out of core.
	self := func(r *rep, l *ledger) float64 {
		out := l.awaitNs.Load() + l.submitNs.Load() + l.mdtaskNs.Load() + l.energyNs.Load() + l.hookNs.Load()
		if r.obs != nil {
			out += r.obs.exportNs
		}
		return r.wallS - sec(out)
	}

	var ckptMs, scrapeMs []float64
	var attempts, failed int
	for _, r := range untimed {
		if r.obs != nil {
			ckptMs = append(ckptMs, r.obs.checkpointMs...)
			scrapeMs = append(scrapeMs, r.obs.scrapeMs...)
		}
		attempts += r.segments + r.failedAttempts
		failed += r.failedAttempts
	}
	return map[string]metric{
		"md.segment_core_s": per("s", func(r *rep, l *ledger) float64 { return sec(l.runNs.Load()) }),
		"md.us_per_replica_step": per("us", func(r *rep, l *ledger) float64 {
			if n := l.runCalls.Load(); n > 0 {
				return float64(l.runNs.Load()) / 1e3 / float64(n) / float64(r.stepsPerSegment)
			}
			return 0
		}),
		"engines.mdtask_ms":    per("ms", func(r *rep, l *ledger) float64 { return msec(l.mdtaskNs.Load()) }),
		"engines.energy_ms":    per("ms", func(r *rep, l *ledger) float64 { return msec(l.energyNs.Load()) }),
		"engines.energy_calls": per("count", func(r *rep, l *ledger) float64 { return float64(l.energyCalls.Load()) }),
		"localexec.wait_s": per("s", func(r *rep, l *ledger) float64 {
			return onLocal(r, sec(l.awaitNs.Load()))
		}),
		"localexec.busy_share": per("ratio", func(r *rep, l *ledger) float64 {
			if !local(r) {
				return 0
			}
			return sec(l.runNs.Load()) / (r.wallS * float64(r.workers))
		}),
		"pilot.submit_ms": per("ms", func(r *rep, l *ledger) float64 { return onPilot(r, msec(l.submitNs.Load())) }),
		"pilot.submit_calls": per("count", func(r *rep, l *ledger) float64 {
			return onPilot(r, float64(l.submitCalls.Load()))
		}),
		"pilot.await_s": per("s", func(r *rep, l *ledger) float64 { return onPilot(r, sec(l.awaitNs.Load())) }),
		"pilot.await_calls": per("count", func(r *rep, l *ledger) float64 {
			return onPilot(r, float64(l.awaitCalls.Load()))
		}),
		"pilot.relaunches":     per("count", func(r *rep, l *ledger) float64 { return float64(r.relaunches) }),
		"pilot.preemptions":    per("count", func(r *rep, l *ledger) float64 { return float64(r.preemptions) }),
		"core.self_s":          per("s", self),
		"core.us_per_segment":  per("us", func(r *rep, l *ledger) float64 { return self(r, l) * 1e6 / float64(r.segments) }),
		"core.exchange_events": per("count", func(r *rep, l *ledger) float64 { return float64(r.events) }),
		"core.pairs_attempted": per("count", func(r *rep, l *ledger) float64 { return float64(r.pairsAttempted) }),
		"core.pairs_accepted":  per("count", func(r *rep, l *ledger) float64 { return float64(r.pairsAccepted) }),
		"ckpt.encode_ms":       per("ms", func(r *rep, l *ledger) float64 { return obs(r, func(o *observed) float64 { return msec(o.encodeNs) }) }),
		"ckpt.write_ms":        per("ms", func(r *rep, l *ledger) float64 { return obs(r, func(o *observed) float64 { return msec(o.writeNs) }) }),
		"ckpt.bytes": per("B", func(r *rep, l *ledger) float64 {
			return obs(r, func(o *observed) float64 { return float64(sum(o.ckptBytes)) })
		}),
		"ckpt.count": per("count", func(r *rep, l *ledger) float64 {
			return obs(r, func(o *observed) float64 { return float64(len(o.checkpointMs)) })
		}),
		"analysis.sync_ms": per("ms", func(r *rep, l *ledger) float64 { return obs(r, func(o *observed) float64 { return msec(o.syncNs) }) }),
		"analysis.events": per("count", func(r *rep, l *ledger) float64 {
			return obs(r, func(o *observed) float64 { return float64(o.collectorEvents) })
		}),
		"analysis.bus_dropped": per("count", func(r *rep, l *ledger) float64 {
			return obs(r, func(o *observed) float64 { return float64(o.busDropped) })
		}),
		"serve.metrics_bytes": per("B", func(r *rep, l *ledger) float64 {
			return obs(r, func(o *observed) float64 { return float64(sum(o.metricsBytes)) / float64(len(o.metricsBytes)) })
		}),
		"serve.status_ms": per("ms", func(r *rep, l *ledger) float64 {
			return obs(r, func(o *observed) float64 { return median(o.statusMs) })
		}),
		"trace.export_ms": per("ms", func(r *rep, l *ledger) float64 { return obs(r, func(o *observed) float64 { return msec(o.exportNs) }) }),
		"trace.spans": per("count", func(r *rep, l *ledger) float64 {
			return obs(r, func(o *observed) float64 { return float64(o.spans) })
		}),
		"trace.dropped": per("count", func(r *rep, l *ledger) float64 {
			return obs(r, func(o *observed) float64 { return float64(o.spansDropped) })
		}),
		"bench.trace_overhead": {medianOf(timed, func(r *rep) float64 { return r.wallS })/
			medianOf(untimed, func(r *rep) float64 { return r.wallS }) - 1, "ratio"},
		"failed_share":      {float64(failed) / float64(attempts), "ratio"},
		"checkpoint_ms_p50": {quantile(ckptMs, 0.5), "ms"},
		"checkpoint_ms_p90": {quantile(ckptMs, 0.9), "ms"},
		"scrape_ms_p50":     {quantile(scrapeMs, 0.5), "ms"},
		"scrape_ms_p90":     {quantile(scrapeMs, 0.9), "ms"},
	}
}

func sum(vs []int) int {
	n := 0
	for _, v := range vs {
		n += v
	}
	return n
}
