// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on the simulated substrates. Each experiment has a
// Run function returning structured rows/series plus a printer producing the
// paper-style summary. Scales default to the reduced sizes discussed in
// DESIGN.md/EXPERIMENTS.md (the paper's own artifact likewise provides
// "*_exp" small-scale variants for personal computers).
package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/gptune"
	"repro/internal/core"
	"repro/internal/opt"
	"repro/internal/tuners"
	"repro/internal/tuners/hpbandster"
	"repro/internal/tuners/opentuner"
)

// baselines returns the Section 6.6 comparators (OpenTuner- and
// HpBandSter-style tuners).
func baselines() []tuners.Tuner {
	return []tuners.Tuner{opentuner.Tuner{}, hpbandster.Tuner{}}
}

// paperOptions returns the MLA settings of the paper's comparisons (Figs. 5,
// 6 and 7 and Table 4): 3 L-BFGS starts × 40 iterations, a 20-particle ×
// 30-iteration PSO, and runtime-like objectives modeled in log space.
func paperOptions(seed int64, workers int) core.Options {
	return core.Options{
		Seed:         seed,
		Workers:      workers,
		LogY:         true,
		NumStarts:    3,
		ModelMaxIter: 40,
		Search:       opt.PSOParams{Particles: 20, MaxIter: 30},
	}
}

// reducedOptions returns paperOptions under DESIGN.md §3's full-scale caps on
// the modeling phase — Q = 2 latent functions, 2 L-BFGS starts × 25
// iterations — the settings of Fig. 4 and Table 3 (lower).
func reducedOptions(seed int64, workers int) core.Options {
	o := paperOptions(seed, workers)
	o.Q, o.NumStarts, o.ModelMaxIter = 2, 2, 25
	return o
}

// compare is the one tuner-comparison driver: it runs MLA once over all the
// tasks under opts, then each of rivals on each task alone with seed seed0+i,
// every run at opts.EpsTot evaluations per task, and returns MLA's per-task
// results and each rival's by name. The call order — MLA, then the rivals in
// the given order, tasks ascending — is part of every result: a simulator's
// noise counts the attempts at each configuration (machine.Noise.Mul).
func compare(p *core.Problem, tasks [][]float64, opts core.Options, rivals []tuners.Tuner, seed0 int64) (mla []*core.TaskResult, byTuner map[string][]*core.TaskResult) {
	res := must(core.Run(p, tasks, opts))
	for i := range res.Tasks {
		mla = append(mla, &res.Tasks[i])
	}
	byTuner = map[string][]*core.TaskResult{}
	for _, tn := range rivals {
		for i, task := range tasks {
			tr := must(tn.Tune(p, task, opts.EpsTot, seed0+int64(i)))
			byTuner[tn.Name()] = append(byTuner[tn.Name()], tr)
		}
	}
	return mla, byTuner
}

// randomTasks draws n feasible tasks of p by Latin hypercube sampling.
func randomTasks(p *core.Problem, n int, seed int64) [][]float64 {
	return must(gptune.SampleTasks(p, n, seed))
}

// must returns v, or panics with err: the experiments' construction paths
// are statically known-good, so an error there is a misconfiguration.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// bestOf returns the best objective-0 value of a task result.
func bestOf(tr *core.TaskResult) float64 {
	_, y := tr.Best()
	return y[0]
}

// stability computes the paper's Table 4 anytime-performance metric for one
// task: mean over j of (best-so-far after j evaluations) divided by the best
// value any tuner found for that task.
func stability(tr *core.TaskResult, bestAnyTuner float64) float64 {
	trace := tr.BestTrace()
	sum := 0.0
	for _, v := range trace {
		sum += v
	}
	return sum / float64(len(trace)) / bestAnyTuner
}

// fprintf writes to w, ignoring nil writers.
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// geoMean returns the geometric mean of positive values.
func geoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// countAtLeast returns how many values are ≥ threshold.
func countAtLeast(vals []float64, threshold float64) int {
	n := 0
	for _, v := range vals {
		if v >= threshold {
			n++
		}
	}
	return n
}

func maxOf(vals []float64) float64 {
	m := math.Inf(-1)
	for _, v := range vals {
		if v > m {
			m = v
		}
	}
	return m
}
