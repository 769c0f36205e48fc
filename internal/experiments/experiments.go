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
