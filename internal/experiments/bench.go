package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bench"
	_ "repro/internal/bench/all" // full scenario catalog
	"repro/internal/core"
	"repro/internal/tuners"
	"repro/internal/tuners/surf"
)

// scenarioProblem resolves a problem through the workload registry — the
// experiments' single way of obtaining a shipped problem. Like the rest of
// the experiment construction paths, it panics on misconfiguration.
func scenarioProblem(name string, p bench.Params) *core.Problem {
	return must(must(bench.Get(name)).Problem(p))
}

// printBench runs MLA alone on every registered scenario at its default
// parameters, δ random tasks each, at one fixed budget and seed and the
// engine's default options, and writes the best found per task next to the
// scenario's known optimum where it declares one: the workload-registry
// regression table EXPERIMENTS.md tracks across PRs. Then it writes the
// quality table of every scenario with a known optimum (printQuality).
func printBench(w io.Writer, delta, eps int, seed int64, seeds, workers int) {
	fprintf(w, "Workload-registry regression: best found by MLA at a fixed budget vs known optimum\n")
	fprintf(w, "%-15s %6s  %13s  %13s  %8s  task\n", "scenario", "evals", "best", "optimum", "gap")
	for _, s := range bench.All() {
		p := scenarioProblem(s.Name, nil)
		tasks := randomTasks(p, delta, seed)
		mla, _ := compare(p, tasks, core.Options{EpsTot: eps, Seed: seed, Workers: workers}, nil, 0)
		for i, tr := range mla {
			best, opt, gap := bestOf(tr), "-", "-"
			if s.Optimum != nil {
				if o, ok := s.Optimum(tasks[i]); ok {
					opt = fmt.Sprintf("%13.6g", o)
					gap = fmt.Sprintf("%+.2f%%", 100*(best-o)/maxAbs(o))
				}
			}
			fprintf(w, "%-15s %6d  %13.6g  %13s  %8s  %s\n", s.Name, eps, best, opt, gap, p.Tasks.Describe(tasks[i]))
		}
	}
	fprintf(w, "\nQuality, %d task(s) a seed, %d evaluations a task: runs within 1 %% and 5 %% of the optimum and their mean\n", delta, eps)
	fprintf(w, "evaluations to get there (NaN: none did); final gap in %% of |optimum|, then absolute: mean, per seed, min-max.\n")
	for _, s := range bench.All() {
		if s.Optimum != nil {
			printQuality(w, s, delta, eps, seed, seeds, workers, benchArms, benchRivals)
		}
	}
}

// benchArm is MLA with one engine default changed: an ablation arm.
type benchArm struct {
	name string
	set  func(*core.Options)
}

// benchArms move the design choices DESIGN.md calls out off their defaults:
// the number of latent functions, the acquisition function and the share of
// the budget spent on the initial design.
var benchArms = []benchArm{
	{"mla Q=1", func(o *core.Options) { o.Q = 1 }},
	{"mla lcb", func(o *core.Options) { o.Acquisition = "lcb" }},
	{"mla pi", func(o *core.Options) { o.Acquisition = "pi" }},
	{"mla init=0.25", func(o *core.Options) { o.InitFraction = 0.25 }},
	{"mla init=0.75", func(o *core.Options) { o.InitFraction = 0.75 }},
}

// benchRivals are every internal/tuners baseline.
var benchRivals = append(baselines(), surf.Tuner{}, tuners.Random{}, tuners.Grid{})

// printQuality writes scenario s's quality table over seeds seed …
// seed+seeds−1. At each seed it draws δ tasks and runs MLA at the engine
// defaults and the rivals through one compare call (rival runs take seeds
// seed·δ+i, distinct across seeds), and each arm through its own on a fresh
// problem instance, so that no run sees another's objective calls.
func printQuality(w io.Writer, s *bench.Scenario, delta, eps int, seed int64, seeds, workers int, arms []benchArm, rivals []tuners.Tuner) {
	names := []string{"mla"}
	for _, a := range arms {
		names = append(names, a.name)
	}
	for _, tn := range rivals {
		names = append(names, tn.Name())
	}
	runs := map[string][][]*core.TaskResult{} // tuner → seed → task
	var optima [][]float64                    // seed → task
	fprintf(w, "%s\n  %-14s %11s %11s %9s", s.Name, "tuner", "to 1 %", "to 5 %", "gap")
	for sd := seed; sd < seed+int64(seeds); sd++ {
		fprintf(w, " %9s", fmt.Sprintf("seed %d", sd))
		p := scenarioProblem(s.Name, nil)
		tasks := randomTasks(p, delta, sd)
		opts := core.Options{EpsTot: eps, Seed: sd, Workers: workers}
		mla, byTuner := compare(p, tasks, opts, rivals, sd*int64(delta))
		byTuner["mla"] = mla
		for _, a := range arms {
			o := opts
			a.set(&o)
			byTuner[a.name], _ = compare(scenarioProblem(s.Name, nil), tasks, o, nil, 0)
		}
		for _, name := range names {
			runs[name] = append(runs[name], byTuner[name])
		}
		opt := make([]float64, len(tasks))
		for i, task := range tasks {
			var ok bool
			if opt[i], ok = s.Optimum(task); !ok {
				panic(fmt.Sprintf("experiments: %s knows no optimum for task %v", s.Name, task))
			}
		}
		optima = append(optima, opt)
	}
	fprintf(w, "  spread\n")
	for _, name := range names {
		printQualityRow(w, name, runs[name], optima)
	}
}

// printQualityRow writes one tuner's two lines of the quality table from its
// runs and their tasks' optima, both grouped by seed. A run's gap is its best
// minus its optimum, on the second line as is and on the first as a share of
// |optimum| under maxAbs's rule. A run is within a level from its first
// evaluation whose gap is at most that level, and censored when none is.
func printQualityRow(w io.Writer, name string, bySeed [][]*core.TaskResult, optima [][]float64) {
	var reached [2]int
	var evals [2]float64
	var pct, abs []float64 // each seed's mean gap
	for k, seedRuns := range bySeed {
		var p, a float64
		for i, tr := range seedRuns {
			opt := optima[k][i]
			gap := bestOf(tr) - opt
			p, a = p+100*gap/maxAbs(opt), a+gap
			for l, level := range [2]float64{0.01, 0.05} {
				for j, y := range tr.Y {
					if (y[0]-opt)/maxAbs(opt) <= level {
						reached[l]++
						evals[l] += float64(j + 1)
						break
					}
				}
			}
		}
		pct, abs = append(pct, p/float64(len(seedRuns))), append(abs, a/float64(len(seedRuns)))
	}
	fprintf(w, "  %-14s", name)
	for l, n := range reached {
		fprintf(w, " %5s %5.1f", fmt.Sprintf("%d/%d", n, len(bySeed)*len(bySeed[0])), evals[l]/float64(n))
	}
	fprintf(w, "%s\n  %38s%s\n", seedColumns(".2f", pct), "", seedColumns(".4g", abs))
}

// seedColumns formats the mean of the seeds' values, each value, and their
// min-max, at precision prec (a verb such as ".2f"). Every seed has δ runs,
// so the mean of the seeds' means is the mean over runs.
func seedColumns(prec string, vals []float64) string {
	var b strings.Builder
	sum, lo, hi := 0.0, vals[0], vals[0]
	for _, v := range vals {
		fmt.Fprintf(&b, " %9"+prec, v)
		sum, lo, hi = sum+v, min(lo, v), max(hi, v)
	}
	return fmt.Sprintf(" %9"+prec+"%s  %"+prec+"-%"+prec, sum/float64(len(vals)), b.String(), lo, hi)
}

func maxAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	if v == 0 {
		return 1
	}
	return v
}
