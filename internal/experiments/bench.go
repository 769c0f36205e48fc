package experiments

import (
	"fmt"
	"io"

	"repro/internal/bench"
	_ "repro/internal/bench/all" // full scenario catalog
	"repro/internal/core"
)

// scenarioProblem resolves a problem through the workload registry — the
// experiments' single way of obtaining a shipped problem. Like the rest of
// the experiment construction paths, it panics on misconfiguration (the
// names and parameters here are statically known-good).
func scenarioProblem(name string, p bench.Params) *core.Problem {
	sc, err := bench.Get(name)
	if err != nil {
		panic(err)
	}
	prob, err := sc.Problem(p)
	if err != nil {
		panic(err)
	}
	return prob
}

// printBench runs MLA alone on every registered scenario at its default
// parameters, δ random tasks each, at one fixed budget and seed and the
// engine's default options, and writes the best found per task next to the
// scenario's known optimum where it declares one: the workload-registry
// regression table EXPERIMENTS.md tracks across PRs.
func printBench(w io.Writer, delta, eps int, seed int64, workers int) {
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
