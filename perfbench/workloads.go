package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/ckpt"
	"repro/internal/cluster"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/exchange"
	"repro/internal/localexec"
	"repro/internal/pilot"
	"repro/internal/respace"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// workload is one named benchmark input. rep performs one complete run
// from freshly generated inputs (specs and triggers carry per-run
// state, so nothing is reused between runs); l is nil for the untimed
// run and the traced run's ledger otherwise. check validates one run's
// outputs.
type workload interface {
	rep(l *ledger) (*rep, error)
	check(r *rep) error
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"real-tuu", "sync-16k", "observed-chaos"}

// defaultSeed is the seed whose outputs are pinned bit-exactly.
const defaultSeed = 1

// newWorkload generates a workload's inputs from seed. toy shrinks
// every size for the self-test; scratch is the directory checkpoint and
// trace files are written to.
func newWorkload(name string, seed int64, toy bool, scratch string) (workload, error) {
	switch name {
	case "real-tuu":
		w := &realTUU{seed: seed, tWin: 3, uWin: 6, steps: 1000, cycles: 3, workers: runtime.NumCPU(), full: !toy}
		if toy {
			w.tWin, w.uWin, w.steps, w.cycles = 2, 3, 50, 1
		}
		return w, nil
	case "sync-16k":
		w := &sync16k{seed: seed, replicas: 16384, cores: 8192, cycles: 2, pinned: !toy && seed == defaultSeed}
		if toy {
			w.replicas, w.cores = 256, 128
		}
		return w, nil
	case "observed-chaos":
		return newObservedChaos(seed, toy, scratch), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// rep is what one run reports. Everything the checks and metrics need
// is copied out so the run's simulation can be collected before the
// live-heap measurement, which holds only the report.
type rep struct {
	setupS, wallS float64
	// segments counts completed MD segments; failedAttempts counts MD
	// attempts that failed (relaunched or dropped); dropped counts
	// replicas lost for good.
	segments, failedAttempts, dropped int
	relaunches, preemptions           int
	allocBytes, heapLiveBytes         uint64
	fingerprint                       uint64
	rows, events                      int
	pairsAttempted, pairsAccepted     int
	acceptT                           float64
	mode                              core.Mode
	// workers is the localexec worker count (0 on the pilot runtime);
	// stepsPerSegment the MD steps one Run closure integrates.
	workers, stepsPerSegment int
	// meanEnergyByT is the mean sampled potential energy per
	// temperature window (real MD only).
	meanEnergyByT []float64
	obs           *observed
}

// outcome is the part of a run the non-interference check compares.
type outcome struct {
	fingerprint                                                          uint64
	rows, events, segments, failedAttempts, dropped, relaunches, preempt int
	pairsAttempted, pairsAccepted                                        int
}

func (r *rep) outcome() outcome {
	return outcome{r.fingerprint, r.rows, r.events, r.segments, r.failedAttempts, r.dropped,
		r.relaunches, r.preemptions, r.pairsAttempted, r.pairsAccepted}
}

// clock brackets one run: setup ends when core.New returns, the run
// phase when the report (and any trace export) is in hand.
type clock struct {
	start, ready time.Time
	alloc0       uint64
}

func startClock() clock {
	// Collect the previous run's garbage so every run starts from the
	// same heap state.
	runtime.GC()
	return clock{start: time.Now()}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// markReady ends setup and starts the run phase.
func (c *clock) markReady() {
	c.ready = time.Now()
	c.alloc0 = totalAlloc()
}

// finish fills the timing, allocation and report-derived fields.
func (c *clock) finish(r *rep, sim *core.Simulation, report *core.Report) {
	end := time.Now()
	r.setupS = c.ready.Sub(c.start).Seconds()
	r.wallS = end.Sub(c.ready).Seconds()
	r.allocBytes = totalAlloc() - c.alloc0
	for _, rp := range sim.Replicas() {
		r.segments += rp.Cycle
	}
	r.dropped = report.Dropped
	r.relaunches = report.Relaunches
	r.failedAttempts = report.Relaunches + report.Dropped
	r.preemptions = report.Preemptions
	r.fingerprint = report.SlotFingerprint
	r.rows = report.SlotRows
	r.events = report.ExchangeEvents
	r.mode = report.Mode
	for _, rec := range report.Records {
		r.pairsAttempted += rec.Attempted
		r.pairsAccepted += rec.Accepted
	}
}

// heapLive measures the live heap after a full collection while the
// caller still holds report.
func heapLive(report *core.Report) uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(report)
	return ms.HeapAlloc
}

// realTUU is the paper's Figure 4 protocol with real MD: alanine
// dipeptide T×U(φ)×U(ψ) under the barrier trigger on localexec.
type realTUU struct {
	seed                               int64
	tWin, uWin, steps, cycles, workers int
	// full marks the full-size run the energy reference was recorded at.
	full bool
}

func (w *realTUU) spec() *core.Spec {
	return &core.Spec{
		Name: "real-tuu",
		Dims: []core.Dimension{
			{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 373, w.tWin)},
			{Type: exchange.Umbrella, Values: core.UniformWindows(w.uWin), Torsion: "phi", K: core.UmbrellaK002},
			{Type: exchange.Umbrella, Values: core.UniformWindows(w.uWin), Torsion: "psi", K: core.UmbrellaK002},
		},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   w.steps,
		Cycles:          w.cycles,
		Seed:            w.seed,
	}
}

func (w *realTUU) rep(l *ledger) (*rep, error) {
	c := startClock()
	eng, err := repex.NewDipeptideEngine("amber", w.seed)
	if err != nil {
		return nil, err
	}
	var e core.Engine = eng
	var rt task.Runtime = localexec.New(w.workers)
	if l != nil {
		e, rt = wrapEngine(e, l), wrapRuntime(rt, l)
	}
	spec := w.spec()
	simu, err := core.New(spec, e, rt)
	if err != nil {
		return nil, err
	}
	c.markReady()
	report, err := simu.Run()
	if err != nil {
		return nil, err
	}
	r := &rep{workers: w.workers, stepsPerSegment: w.steps, acceptT: report.AcceptanceRatioByDim(0)}
	c.finish(r, simu, report)
	r.meanEnergyByT = meanEnergyByT(eng, spec)
	r.heapLiveBytes = heapLive(report)
	return r, nil
}

// meanEnergyByT averages the sampled potential energy over every window
// of each temperature layer.
func meanEnergyByT(eng *engines.Real, spec *core.Spec) []float64 {
	grid := spec.Grid()
	sum := make([]float64, len(spec.Dims[0].Values))
	n := make([]int, len(sum))
	for slot := 0; slot < grid.Size(); slot++ {
		tr := eng.WindowTrajectory(slot)
		if tr == nil {
			continue
		}
		t := grid.Coord(slot)[0]
		for _, u := range tr.Potential {
			sum[t] += u
			n[t]++
		}
	}
	for t := range sum {
		if n[t] == 0 {
			sum[t] = math.NaN()
			continue
		}
		sum[t] /= float64(n[t])
	}
	return sum
}

// sync16k is the paper's headline scale: 16384-replica T-REMD on the
// virtual sander cost model under the barrier trigger, on one failover
// pilot of half as many cores (Execution Mode II: two waves per phase).
type sync16k struct {
	seed                    int64
	replicas, cores, cycles int
	pinned                  bool
}

func (w *sync16k) rep(l *ledger) (*rep, error) {
	c := startClock()
	spec := &core.Spec{
		Name:            "sync-16k",
		Dims:            []core.Dimension{{Type: exchange.Temperature, Values: core.GeometricTemperatures(273, 600, w.replicas)}},
		Pattern:         core.PatternSynchronous,
		CoresPerReplica: 1,
		StepsPerCycle:   6000,
		Cycles:          w.cycles,
		Seed:            w.seed,
	}
	env := sim.NewEnv()
	cl, err := cluster.New(env, cluster.Stampede(), w.seed+1)
	if err != nil {
		return nil, err
	}
	var e core.Engine = engines.NewAmberVirtual(2881, w.seed+2)
	if l != nil {
		e = wrapEngine(e, l)
	}
	var simu *core.Simulation
	var report *core.Report
	var runErr error
	env.Go("emm", func(p *sim.Proc) {
		var rt task.Runtime
		rt, runErr = pilot.NewFailoverRuntime(cl, pilot.Description{Cores: w.cores}, p)
		if runErr != nil {
			return
		}
		if l != nil {
			rt = wrapRuntime(rt, l)
		}
		simu, runErr = core.New(spec, e, rt)
		if runErr != nil {
			return
		}
		c.markReady()
		report, runErr = simu.Run()
	})
	env.Run()
	if runErr != nil {
		return nil, runErr
	}
	r := &rep{}
	c.finish(r, simu, report)
	r.heapLiveBytes = heapLive(report)
	return r, nil
}

// observedChaos is the daemon-style observed run: a feedback-triggered
// T×U ladder with respacing, two pilots behind a failover MultiRuntime,
// a scripted chaos plan, and every observer attached — bus, collector,
// flight recorder, a checkpoint per exchange event and one /metrics and
// one /status read after each checkpoint.
type observedChaos struct {
	simJSON, resJSON []byte
	// segments is the replica count times the cycle count.
	segments  int
	ckptPath  string
	tracePath string
	pinned    bool
}

// observed is what the observers of one observed-chaos run recorded.
type observed struct {
	checkpointMs, scrapeMs, statusMs []float64
	encodeNs, writeNs, syncNs        int64
	ckptBytes, metricsBytes          []int
	lastCheckpointEvents             int
	// err is the first checkpoint or scrape failure.
	err                          error
	exportNs                     int64
	spans, spansDropped          uint64
	collectorEvents, collectorMD int
	busDropped                   uint64
}

// newObservedChaos generates the run's simulation and resource files
// from seed: the fault times and the pilot each fault hits are drawn
// from it, so every seed scripts different failures.
func newObservedChaos(seed int64, toy bool, scratch string) *observedChaos {
	rng := rand.New(rand.NewSource(seed))
	tCount, uCount, cycles, cores := 64, 8, 40, 256
	if toy {
		tCount, uCount, cycles, cores = 8, 4, 4, 16
	}
	simFile := map[string]any{
		"name":   "observed-chaos",
		"engine": "amber",
		"atoms":  2881,
		"dimensions": []map[string]any{
			{"type": "T", "count": tCount, "min": 273, "max": 373},
			{"type": "U", "count": uCount, "torsion": "phi"},
		},
		"pattern":           "async",
		"trigger":           "feedback",
		"cores_per_replica": 1,
		"steps_per_cycle":   2000,
		"cycles":            cycles,
		"async_window_sec":  45,
		"target_acceptance": 0.35,
		"window_events":     12,
		"respace":           map[string]any{"enabled": true, "after_steps": 8, "max_refits": 2},
		"seed":              seed,
	}
	lossPilot := rng.Intn(2)
	resFile := map[string]any{
		"machine":            "small",
		"nodes":              cores / 8,
		"cores_per_node":     16,
		"pilot_cores":        cores,
		"pilots":             2,
		"seed":               seed,
		"preempt_notice_sec": 30,
		"chaos": []map[string]any{
			{"at_sec": 60 + rng.Float64()*120, "pilot": lossPilot, "kind": "node-loss", "cores": cores / 8},
			{"at_sec": 200 + rng.Float64()*120, "pilot": 1 - lossPilot, "kind": "preempt"},
		},
	}
	simJSON, _ := json.Marshal(simFile) // maps of plain values always marshal
	resJSON, _ := json.Marshal(resFile)
	return &observedChaos{
		simJSON:   simJSON,
		resJSON:   resJSON,
		segments:  tCount * uCount * cycles,
		ckptPath:  filepath.Join(scratch, "observed-chaos.ckpt"),
		tracePath: filepath.Join(scratch, "observed-chaos.trace.json"),
		pinned:    !toy && seed == defaultSeed,
	}
}

func (w *observedChaos) rep(l *ledger) (*rep, error) {
	c := startClock()
	simFile, err := config.ParseSimulation(w.simJSON)
	if err != nil {
		return nil, err
	}
	spec, err := simFile.ToSpec()
	if err != nil {
		return nil, err
	}
	machine, ps, err := config.ParseResource(w.resJSON)
	if err != nil {
		return nil, err
	}
	obs := &observed{}
	spec.Bus = core.NewBus()
	colCfg := analysis.ConfigFromSpec(spec)
	colCfg.WindowEvents = simFile.WindowEvents
	col := analysis.New(colCfg)
	col.Attach(spec.Bus, analysis.RunBuffer(spec))
	spec.Respace.Planner = respace.NewPlanner(col)
	tracer := trace.New(0)
	spec.Tracer = tracer
	feedback := spec.Trigger.(*core.FeedbackTrigger)
	server := serve.New(col, func() serve.RunStatus {
		return serve.RunStatus{
			Name:         spec.Name,
			Engine:       simFile.Engine,
			Trigger:      spec.TriggerName(),
			State:        "running",
			Replicas:     spec.Replicas(),
			Cores:        ps.Cores,
			CyclesTarget: spec.Cycles,
			BusPublished: spec.Bus.Published(),
			Feedback:     feedback.ControllerStatus(),
		}
	})
	server.SetTracer(tracer)
	handler := server.Handler()
	spec.SnapshotEvery = 1
	spec.OnSnapshot = func(sn *core.Snapshot) { w.checkpointAndScrape(sn, col, handler, obs) }
	if l != nil {
		spec.OnSnapshot = wrapHook(spec.OnSnapshot, l)
	}

	env := sim.NewEnv()
	cl, err := cluster.New(env, machine, spec.Seed+1)
	if err != nil {
		return nil, err
	}
	var e core.Engine = engines.NewNamedVirtual(simFile.Engine, simFile.Atoms, spec.Seed+2)
	if l != nil {
		e = wrapEngine(e, l)
	}
	var simu *core.Simulation
	var report *core.Report
	var runErr error
	env.Go("emm", func(p *sim.Proc) {
		mr, err := launchPilots(cl, ps, p)
		if err != nil {
			runErr = err
			return
		}
		ps.Chaos.Drive(env, mr.PilotAt)
		var rt task.Runtime = mr
		if l != nil {
			rt = wrapRuntime(rt, l)
		}
		simu, runErr = core.New(spec, e, rt)
		if runErr != nil {
			return
		}
		c.markReady()
		report, runErr = simu.Run()
	})
	env.Run()
	if runErr != nil {
		return nil, runErr
	}
	t := time.Now()
	data, err := tracer.ExportJSON()
	if err == nil {
		err = ckpt.WriteAtomic(w.tracePath, data)
	}
	if err != nil {
		return nil, fmt.Errorf("exporting trace: %w", err)
	}
	obs.exportNs = since(t)
	obs.spans, obs.spansDropped = tracer.Recorded(), tracer.Dropped()
	stats := col.Snapshot()
	obs.collectorEvents, obs.collectorMD, obs.busDropped = stats.Events, stats.MDSegments, stats.BusDropped
	r := &rep{obs: obs}
	c.finish(r, simu, report)
	r.heapLiveBytes = heapLive(report)
	return r, nil
}

// launchPilots splits the pilot cores across ps.Pilots pilots behind
// one failover MultiRuntime, as internal/bench.Run does for cmd/repex's
// multi-pilot resource files. bench.Run builds its runtime internally,
// so the traced run, which must wrap that runtime, assembles its own.
func launchPilots(cl *cluster.Cluster, ps config.PilotSpec, p *sim.Proc) (*pilot.MultiRuntime, error) {
	per, extra := ps.Cores/ps.Pilots, ps.Cores%ps.Pilots
	pilots := make([]*pilot.Pilot, ps.Pilots)
	for i := range pilots {
		cores := per
		if i < extra {
			cores++
		}
		pl, err := pilot.Launch(cl, pilot.Description{Cores: cores, Walltime: ps.Walltime})
		if err != nil {
			return nil, err
		}
		pilots[i] = pl
	}
	mr, err := pilot.NewMultiRuntime(p, pilots...)
	if err != nil {
		return nil, err
	}
	mr.Failover = true
	return mr, nil
}

// checkpointAndScrape is the run's OnSnapshot hook: sync the collector,
// embed its state, encode and atomically write the checkpoint, then
// read /metrics and /status once each, as an operator polling a live
// run would.
func (w *observedChaos) checkpointAndScrape(sn *core.Snapshot, col *analysis.Collector, h http.Handler, obs *observed) {
	t0 := time.Now()
	col.Sync()
	t1 := time.Now()
	data, err := col.EncodeState()
	if err == nil {
		sn.Analysis = data
		data, err = sn.Encode()
	}
	t2 := time.Now()
	if err == nil {
		err = ckpt.WriteAtomic(w.ckptPath, data)
	}
	t3 := time.Now()
	if err != nil && obs.err == nil {
		obs.err = fmt.Errorf("checkpoint at event %d: %w", sn.Events, err)
	}
	obs.syncNs += int64(t1.Sub(t0))
	obs.encodeNs += int64(t2.Sub(t1))
	obs.writeNs += int64(t3.Sub(t2))
	obs.checkpointMs = append(obs.checkpointMs, ms(t3.Sub(t0)))
	obs.ckptBytes = append(obs.ckptBytes, len(data))
	obs.lastCheckpointEvents = sn.Events

	body, d, err := get(h, "/metrics")
	if err == nil && !strings.Contains(body, "repex_") {
		err = fmt.Errorf("/metrics carries no repex_ families")
	}
	if err != nil && obs.err == nil {
		obs.err = err
	}
	obs.scrapeMs = append(obs.scrapeMs, ms(d))
	obs.metricsBytes = append(obs.metricsBytes, len(body))
	if _, d, err = get(h, "/status"); err != nil && obs.err == nil {
		obs.err = err
	}
	obs.statusMs = append(obs.statusMs, ms(d))
}

// get performs one in-process GET and times it.
func get(h http.Handler, path string) (string, time.Duration, error) {
	t := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	d := time.Since(t)
	if rec.Code != http.StatusOK {
		return "", d, fmt.Errorf("GET %s: status %d", path, rec.Code)
	}
	return rec.Body.String(), d, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
