package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/benchmark/span"
	"repro/benchmark/stats"
)

// metricDef names one metric of the ledger. Every workload emits every
// metric: the end-to-end ones from the timed run, the per-layer ones from
// the traced run. BENCHMARK.json restates name, unit, better and bound; a
// test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Layer  string  // per-layer only: the module that owns it
	Moves  string  // per-layer only: the end-to-end metric it should move, and where
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "evals_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "suggest_wait_mean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

const (
	mvTune   = "evals_per_s, suggest_wait_*@tune_cold,tune_warm"
	mvCold   = "evals_per_s@tune_cold"
	mvWarm   = "evals_per_s@tune_warm"
	mvClosed = "evals_per_s@serve_closed"
	mvPaced  = "suggest_wait_*, evals_per_s@serve_paced"
	mvNone   = "none expected above noise"
)

var perLayer = []metricDef{
	// The workload as its caller sees it: the load generator's own log.
	{Name: "drive.suggest_p50_ms", Unit: "ms", Better: "lower", Layer: "drive", Moves: "suggest_wait_mean_ms"},
	{Name: "drive.suggest_p95_ms", Unit: "ms", Better: "lower", Layer: "drive", Moves: "suggest_wait_mean_ms"},
	{Name: "drive.suggest_p99_ms", Unit: "ms", Better: "lower", Layer: "drive", Moves: "suggest_wait_mean_ms"},
	{Name: "drive.suggest_wait_p50_ms", Unit: "ms", Better: "lower", Layer: "drive", Moves: "suggest_wait_mean_ms"},
	{Name: "drive.suggest_wait_p95_ms", Unit: "ms", Better: "lower", Layer: "drive", Moves: "suggest_wait_mean_ms"},
	{Name: "drive.report_p50_ms", Unit: "ms", Better: "lower", Layer: "drive", Moves: mvClosed},
	{Name: "drive.report_p99_ms", Unit: "ms", Better: "lower", Layer: "drive", Moves: mvClosed},
	{Name: "drive.read_p50_ms", Unit: "ms", Better: "lower", Layer: "drive", Moves: mvClosed},
	{Name: "drive.create_p50_ms", Unit: "ms", Better: "lower", Layer: "drive", Moves: mvClosed},
	{Name: "drive.generation_ms_p50", Unit: "ms", Better: "lower", Layer: "drive", Moves: "suggest_wait_*"},
	{Name: "drive.barrier_wait_ms_p50", Unit: "ms", Better: "lower", Layer: "drive", Moves: mvPaced},
	{Name: "drive.generation_share", Unit: "frac", Better: "lower", Layer: "drive", Moves: mvClosed},
	{Name: "drive.fast_suggest_lt5ms_frac", Unit: "frac", Better: "higher", Layer: "drive", Moves: mvPaced},
	{Name: "drive.evaluator_idle_frac", Unit: "frac", Better: "lower", Layer: "drive", Moves: mvPaced},
	{Name: "drive.makespan_s", Unit: "s", Better: "lower", Layer: "drive", Moves: "evals_per_s"},
	{Name: "drive.evals_per_s_raw", Unit: "1/s", Better: "higher", Layer: "drive", Moves: "evals_per_s before the CPU-slowdown correction"},
	{Name: "drive.suggest_wait_mean_ms_raw", Unit: "ms", Better: "lower", Layer: "drive", Moves: "suggest_wait_mean_ms before the correction"},
	{Name: "drive.studies", Unit: "count", Better: "higher", Layer: "drive", Moves: "evals_per_s"},
	{Name: "drive.evals", Unit: "count", Better: "higher", Layer: "drive", Moves: "evals_per_s"},
	{Name: "drive.cpu_ms_per_eval", Unit: "ms", Better: "lower", Layer: "drive", Moves: "evals_per_s; " + mvPaced},
	{Name: "drive.self_s.study", Unit: "s", Better: "lower", Layer: "drive", Moves: "evals_per_s"},
	{Name: "drive.self_s.create", Unit: "s", Better: "lower", Layer: "drive", Moves: "evals_per_s"},
	{Name: "drive.self_s.suggest", Unit: "s", Better: "lower", Layer: "drive", Moves: "evals_per_s"},
	{Name: "drive.self_s.evaluate", Unit: "s", Better: "lower", Layer: "drive", Moves: "evals_per_s"},
	{Name: "drive.self_s.report", Unit: "s", Better: "lower", Layer: "drive", Moves: "evals_per_s"},
	{Name: "drive.self_s.read", Unit: "s", Better: "lower", Layer: "drive", Moves: "evals_per_s"},
	{Name: "client.polls_per_eval", Unit: "ratio", Better: "lower", Layer: "client", Moves: mvPaced},
	{Name: "client.conflicts_409", Unit: "count", Better: "lower", Layer: "client", Moves: mvPaced},
	{Name: "loadgen.late_ms_p99", Unit: "ms", Better: "lower", Layer: "loadgen", Moves: "sanity: < 5"},
	{Name: "loadgen.cpu_slowdown", Unit: "ratio", Better: "lower", Layer: "loadgen", Moves: "the state of the box, not of the code"},
	{Name: "loadgen.cpu_share", Unit: "frac", Better: "lower", Layer: "loadgen", Moves: "how much of the correction applies"},
	{Name: "quality.evals_to_5pct", Unit: "count", Better: "lower", Layer: "core", Moves: "tuning quality; repeats exactly on one commit"},
	{Name: "quality.final_regret_pct", Unit: "%", Better: "lower", Layer: "core", Moves: "tuning quality; gated by the correctness check"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Layer: "trace", Moves: "sanity: < 5"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Layer: "trace", Moves: mvNone},

	// core: the engine's own phase accounting on this workload's studies
	// (library: read from the driven engine; service: an in-process replay
	// of a sample of the workload's study specs, scaled to the study count).
	{Name: "core.modeling_s", Unit: "s", Better: "lower", Layer: "core", Moves: mvTune},
	{Name: "core.search_s", Unit: "s", Better: "lower", Layer: "core", Moves: mvWarm},
	{Name: "core.objective_s", Unit: "s", Better: "lower", Layer: "core", Moves: mvNone},
	{Name: "core.modeling_share", Unit: "frac", Better: "lower", Layer: "core", Moves: mvCold},
	{Name: "core.search_share", Unit: "frac", Better: "lower", Layer: "core", Moves: mvWarm},
	{Name: "core.generations", Unit: "count", Better: "lower", Layer: "core", Moves: mvNone},
	{Name: "core.refits", Unit: "count", Better: "lower", Layer: "core", Moves: mvCold},
	{Name: "core.appends", Unit: "count", Better: "higher", Layer: "core", Moves: mvWarm},
	{Name: "core.engine_suggest_us", Unit: "us", Better: "lower", Layer: "core", Moves: "suggest_wait_mean_ms@serve_closed"},
	{Name: "core.engine_observe_us", Unit: "us", Better: "lower", Layer: "core", Moves: mvClosed},
	{Name: "core.engine_observe_wal_us", Unit: "us", Better: "lower", Layer: "core", Moves: mvClosed},

	// Layer micro-measurements on seeded inputs, the same in every traced run.
	{Name: "surrogate.fit_ms.lcm", Unit: "ms", Better: "lower", Layer: "surrogate", Moves: mvCold + "; " + mvPaced},
	{Name: "surrogate.fit_ms.gp-indep", Unit: "ms", Better: "lower", Layer: "surrogate", Moves: mvNone},
	{Name: "surrogate.fit_ms.sgp", Unit: "ms", Better: "lower", Layer: "surrogate", Moves: mvNone},
	{Name: "surrogate.fit_ms.rf", Unit: "ms", Better: "lower", Layer: "surrogate", Moves: "suggest_wait_mean_ms@serve_closed"},
	{Name: "surrogate.append_ms.lcm", Unit: "ms", Better: "lower", Layer: "surrogate", Moves: mvWarm},
	{Name: "surrogate.append_ms.gp-indep", Unit: "ms", Better: "lower", Layer: "surrogate", Moves: mvNone},
	{Name: "surrogate.append_ms.sgp", Unit: "ms", Better: "lower", Layer: "surrogate", Moves: mvNone},
	{Name: "surrogate.predict_us.lcm", Unit: "us", Better: "lower", Layer: "surrogate", Moves: mvWarm},
	{Name: "surrogate.predict_us.gp-indep", Unit: "us", Better: "lower", Layer: "surrogate", Moves: mvNone},
	{Name: "surrogate.predict_us.sgp", Unit: "us", Better: "lower", Layer: "surrogate", Moves: mvNone},
	{Name: "surrogate.predict_us.rf", Unit: "us", Better: "lower", Layer: "surrogate", Moves: "suggest_wait_mean_ms@serve_closed"},
	{Name: "surrogate.snapshot_bytes.lcm", Unit: "bytes", Better: "lower", Layer: "surrogate", Moves: mvPaced},
	{Name: "surrogate.snapshot_bytes.gp-indep", Unit: "bytes", Better: "lower", Layer: "surrogate", Moves: mvNone},
	{Name: "surrogate.snapshot_bytes.sgp", Unit: "bytes", Better: "lower", Layer: "surrogate", Moves: mvNone},
	{Name: "surrogate.snapshot_bytes.rf", Unit: "bytes", Better: "lower", Layer: "surrogate", Moves: mvClosed},
	{Name: "gp.fit_lcm_ms.n150", Unit: "ms", Better: "lower", Layer: "gp", Moves: mvCold},
	{Name: "gp.fit_lcm_ms.n800", Unit: "ms", Better: "lower", Layer: "gp", Moves: mvWarm},
	{Name: "gp.predict_into_us.n920", Unit: "us", Better: "lower", Layer: "gp", Moves: mvWarm},
	{Name: "gp.append_obs_ms.n920_k2", Unit: "ms", Better: "lower", Layer: "gp", Moves: mvWarm},
	{Name: "gp.loo_ms.n150", Unit: "ms", Better: "lower", Layer: "gp", Moves: mvNone},
	{Name: "la.cholesky_ms.n512", Unit: "ms", Better: "lower", Layer: "la", Moves: mvCold},
	{Name: "la.cholesky_ms.n512_w1", Unit: "ms", Better: "lower", Layer: "la", Moves: mvCold},
	{Name: "la.cholesky_gflops.n512", Unit: "Gflop/s", Better: "higher", Layer: "la", Moves: mvCold},
	{Name: "la.chol_inverse_ms.n512", Unit: "ms", Better: "lower", Layer: "la", Moves: mvCold},
	{Name: "la.chol_inverse_ms.n512_w1", Unit: "ms", Better: "lower", Layer: "la", Moves: mvCold},
	{Name: "la.append_rows_ms.n1024_k4", Unit: "ms", Better: "lower", Layer: "la", Moves: mvWarm},
	{Name: "la.tri_solve_us.n1024", Unit: "us", Better: "lower", Layer: "la", Moves: mvWarm},
	{Name: "la.dot_ns.n4096", Unit: "ns", Better: "lower", Layer: "la", Moves: mvTune},
	{Name: "opt.pso_ms.ei_n920", Unit: "ms", Better: "lower", Layer: "opt", Moves: mvWarm},
	{Name: "opt.pso_evals", Unit: "count", Better: "lower", Layer: "opt", Moves: mvWarm},
	{Name: "opt.lbfgs_ms.rosenbrock20", Unit: "ms", Better: "lower", Layer: "opt", Moves: mvCold},
	{Name: "opt.lbfgs_iters", Unit: "count", Better: "lower", Layer: "opt", Moves: mvCold},
	{Name: "acq.ei_ns", Unit: "ns", Better: "lower", Layer: "acq", Moves: mvNone},
	{Name: "sample.feasible_lhs_ms.gemm", Unit: "ms", Better: "lower", Layer: "sample", Moves: mvNone},
	{Name: "space.normalize_ns.gemm", Unit: "ns", Better: "lower", Layer: "space", Moves: mvNone},
	{Name: "bench.objective_ns.gemm", Unit: "ns", Better: "lower", Layer: "bench", Moves: mvNone},
	{Name: "bench.objective_ns.recsys", Unit: "ns", Better: "lower", Layer: "bench", Moves: mvNone},
	{Name: "bench.objective_ns.analytical", Unit: "ns", Better: "lower", Layer: "bench", Moves: mvNone},
	{Name: "histdb.wal_append_fsync_us", Unit: "us", Better: "lower", Layer: "histdb", Moves: mvClosed},
	{Name: "histdb.wal_append_group8_us", Unit: "us", Better: "lower", Layer: "histdb", Moves: mvNone},
	{Name: "histdb.open_replay_ms.n5000", Unit: "ms", Better: "lower", Layer: "histdb", Moves: "setup_s"},
	{Name: "histdb.compact_ms.n5000", Unit: "ms", Better: "lower", Layer: "histdb", Moves: mvNone},
	{Name: "histdb.load_ms.n800", Unit: "ms", Better: "lower", Layer: "histdb", Moves: "setup_s@tune_warm"},
	{Name: "histdb.wal_bytes_per_record", Unit: "bytes", Better: "lower", Layer: "histdb", Moves: mvClosed},
	{Name: "serve.suggest_handler_us", Unit: "us", Better: "lower", Layer: "serve", Moves: "suggest_wait_mean_ms@serve_closed"},
	{Name: "serve.report_handler_us", Unit: "us", Better: "lower", Layer: "serve", Moves: mvClosed},
	{Name: "serve.create_handler_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: mvClosed},
	{Name: "serve.history_handler_us", Unit: "us", Better: "lower", Layer: "serve", Moves: mvClosed},
	{Name: "serve.snapshot_export_ms", Unit: "ms", Better: "lower", Layer: "serve", Moves: mvNone},
	{Name: "serve.resume_ms_per_study", Unit: "ms", Better: "lower", Layer: "serve", Moves: "setup_s"},
	{Name: "serve.req_bytes", Unit: "bytes", Better: "lower", Layer: "serve", Moves: mvClosed},
	{Name: "serve.resp_bytes", Unit: "bytes", Better: "lower", Layer: "serve", Moves: mvClosed},
	{Name: "client.rtt_direct_us.suggest", Unit: "us", Better: "lower", Layer: "client", Moves: "suggest_wait_mean_ms@serve_closed"},
	{Name: "client.rtt_direct_us.report", Unit: "us", Better: "lower", Layer: "client", Moves: mvClosed},
	{Name: "router.hop_us.suggest", Unit: "us", Better: "lower", Layer: "router", Moves: "suggest_wait_mean_ms@serve_closed"},
	{Name: "router.hop_us.report", Unit: "us", Better: "lower", Layer: "router", Moves: mvClosed},
	{Name: "ring.owner_ns", Unit: "ns", Better: "lower", Layer: "ring", Moves: mvNone},
	{Name: "ring.placement_skew", Unit: "ratio", Better: "lower", Layer: "ring", Moves: mvClosed},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one run of one workload. Its JSON form is the line the
// benchmark contract asks for; the unexported fields ride along for the
// ledger and the correctness report.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	hashes   []string // history digests of the first unit's studies
	evals    int
	cpuS     float64 // CPU seconds the tuner spent: this process (library) or the children (service)
	run      phase   // the measured phase
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}

func (o *outcome) setE2E(name string, v float64) {
	o.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)}
}

func (o *outcome) setLayer(name string, v float64) {
	o.Metrics[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
}

// outcome turns the drive log into the timed run's result: every
// end-to-end metric, the operation counts, and the correctness problems
// seen so far. Timings are corrected for the CPU slowdown the probe saw
// during their phase. tunerCPUS is the CPU time the tuner spent over the
// measured phase: this process (library) or the children (service).
func (l *driveLog) outcome(e *env, setups []phase, run phase, tunerCPUS, rssMB float64) *outcome {
	l.mu.Lock()
	defer l.mu.Unlock()
	o := &outcome{Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}, evals: l.evals, cpuS: tunerCPUS, run: run}
	o.problems = append(o.problems, l.problems...)
	if l.failed > 0 {
		o.problems = append(o.problems, fmt.Sprintf("%d of %d operations failed", l.failed, l.attempted))
	}
	if l.evals == 0 || len(l.waitMs) == 0 {
		o.problems = append(o.problems, "no evaluation completed")
	}
	if e.rec != nil {
		return o // the traced run reports per-layer metrics only
	}
	setupS := make([]float64, len(setups))
	for i, ph := range setups {
		setupS[i] = ph.seconds * e.probe.correction(ph)
	}
	c := e.probe.correction(run)
	e.logf("cpu slowdown over the measured phase %.3f, cpu share %.3f, correction %.3f; evals/s as clocked %.6g", e.probe.slowdown(run), run.cpuShare, c, float64(l.evals)/run.seconds)
	o.setE2E("setup_s", median(setupS))
	o.setE2E("evals_per_s", float64(l.evals)/(run.seconds*c))
	o.setE2E("suggest_wait_mean_ms", stats.Mean(l.waitMs)*c)
	o.setE2E("peak_rss_mb", rssMB)
	return o
}

// spanCostNs measures what recording one span costs, so the traced run can
// state its own overhead without a second, untraced pass.
func spanCostNs() float64 {
	r := span.New()
	const n = 20000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.End(r.Start("calibrate", "", -1))
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// addTraced fills in the per-layer metrics that come from the traced drive
// itself (the micro-measurements are added by addLayers).
func (o *outcome) addTraced(e *env, l *driveLog, split *phaseSplit, observeWalNs []float64, q *quality) {
	l.mu.Lock()
	defer l.mu.Unlock()
	o.setLayer("drive.suggest_p50_ms", median(l.latMs["suggest"]))
	o.setLayer("drive.suggest_p95_ms", pct(l.latMs["suggest"], 95))
	o.setLayer("drive.suggest_p99_ms", pct(l.latMs["suggest"], 99))
	o.setLayer("drive.suggest_wait_p50_ms", median(l.waitMs))
	o.setLayer("drive.suggest_wait_p95_ms", pct(l.waitMs, 95))
	o.setLayer("drive.report_p50_ms", median(l.latMs["report"]))
	o.setLayer("drive.report_p99_ms", pct(l.latMs["report"], 99))
	o.setLayer("drive.read_p50_ms", median(l.latMs["read"]))
	o.setLayer("drive.create_p50_ms", median(l.latMs["create"]))
	o.setLayer("drive.generation_ms_p50", median(l.genMs))
	o.setLayer("drive.barrier_wait_ms_p50", median(l.barrierMs))
	o.setLayer("drive.generation_share", l.genBusyS/l.busyS)
	o.setLayer("drive.fast_suggest_lt5ms_frac", fracBelow(l.fastMs, 5))
	o.setLayer("drive.evaluator_idle_frac", l.waitS/l.lifeS)
	o.setLayer("drive.makespan_s", o.run.seconds)
	o.setLayer("drive.evals_per_s_raw", float64(l.evals)/o.run.seconds)
	o.setLayer("drive.suggest_wait_mean_ms_raw", stats.Mean(l.waitMs))
	o.setLayer("loadgen.cpu_slowdown", e.probe.slowdown(o.run))
	o.setLayer("loadgen.cpu_share", o.run.cpuShare)
	o.setLayer("drive.studies", float64(l.studies))
	o.setLayer("drive.evals", float64(l.evals))
	o.setLayer("drive.cpu_ms_per_eval", 1e3*o.cpuS/float64(l.evals))
	o.setLayer("client.polls_per_eval", float64(len(l.latMs["suggest"]))/float64(l.evals))
	o.setLayer("client.conflicts_409", float64(l.conflicts))
	o.setLayer("loadgen.late_ms_p99", pct(l.lateMs, 99))
	o.setLayer("quality.evals_to_5pct", q.meanEvalsTo5())
	o.setLayer("quality.final_regret_pct", q.maxRegret())

	spans := e.rec.Spans()
	self := map[string]float64{}
	for _, r := range span.RollUp(spans) {
		self[r.Name] = r.SelfS
	}
	for _, name := range []string{"study", "create", "suggest", "evaluate", "report", "read"} {
		o.setLayer("drive.self_s."+name, self[name])
	}
	o.setLayer("trace.spans", float64(len(spans)))
	o.setLayer("trace.overhead_pct", 100*float64(len(spans))*spanCostNs()/(1e9*o.run.seconds))

	o.setLayer("core.modeling_s", split.modelingS)
	o.setLayer("core.search_s", split.searchS)
	o.setLayer("core.objective_s", self["evaluate"])
	o.setLayer("core.modeling_share", split.modelingS/split.wallS)
	o.setLayer("core.search_share", split.searchS/split.wallS)
	o.setLayer("core.generations", float64(split.generations))
	o.setLayer("core.refits", float64(split.refits))
	o.setLayer("core.appends", float64(split.appends))
	o.setLayer("core.engine_suggest_us", median(split.suggestNs)/1e3)
	o.setLayer("core.engine_observe_us", median(split.observeNs)/1e3)
	o.setLayer("core.engine_observe_wal_us", median(observeWalNs)/1e3)
}

// finish checks the metric set against the catalogue and settles Correct.
func (o *outcome) finish(traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var missing []string
	for _, d := range defs {
		if _, ok := o.Metrics[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 || len(o.Metrics) != len(defs) {
		sort.Strings(missing)
		return fmt.Errorf("benchmark: run produced %d metrics, catalogue has %d (missing %v)", len(o.Metrics), len(defs), missing)
	}
	for name, m := range o.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			o.problems = append(o.problems, fmt.Sprintf("metric %s is not a finite number", name))
			o.Metrics[name] = metric{Value: -1, Unit: m.Unit}
		}
	}
	o.Correct = len(o.problems) == 0
	return nil
}

func (o *outcome) jsonLine() string {
	data, err := json.Marshal(o)
	if err != nil {
		panic(err) // a map of finite floats and strings always marshals
	}
	return string(data)
}
