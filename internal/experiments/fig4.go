package experiments

import (
	"io"
	"math"

	"repro/internal/apps/analytical"
	"repro/internal/apps/scalapack"
	"repro/internal/core"
)

// Fig4AnalyticalRow holds, for one (ε_tot, task) pair, the tuned minima with
// and without the noisy performance model and the true minimum.
type Fig4AnalyticalRow struct {
	EpsTot        int
	Task          float64
	WithoutModel  float64
	WithModel     float64
	TrueMin       float64
	RatioNoModel  float64 // excess-over-true-min ratio; ≥1 means the model helped
	RatioTrueOver float64 // with-model excess above the true minimum
}

// Fig4Analytical reproduces Fig. 4 (left): MLA on the analytical function
// with and without the ỹ=(1+0.1r(x))·y performance model, for δ tasks
// t = 0, 0.5, … and several sample budgets. The paper uses δ=20 and
// ε_tot ∈ {20, 40, 80}; defaults here are reduced (see EXPERIMENTS.md).
func Fig4Analytical(delta int, epsTots []int, seed int64, workers int) []Fig4AnalyticalRow {
	if delta <= 0 {
		delta = 10
	}
	if len(epsTots) == 0 {
		epsTots = []int{10, 20}
	}
	tasks := make([][]float64, delta)
	for i := range tasks {
		tasks[i] = []float64{float64(i) * 0.5}
	}
	var rows []Fig4AnalyticalRow
	for _, eps := range epsTots {
		base := scenarioProblem("analytical", nil)
		withModel := scenarioProblem("analytical", nil)
		withModel.Model = analytical.NoisyModel(0.1)

		opts := reducedOptions(seed, workers)
		opts.EpsTot, opts.LogY = eps, false // Eq. (11) takes negative values
		resBase := must(core.Run(base, tasks, opts))
		resModel := must(core.Run(withModel, tasks, opts))
		for i := range tasks {
			_, truth := analytical.TrueMin(tasks[i][0])
			wo := bestOf(&resBase.Tasks[i])
			wi := bestOf(&resModel.Tasks[i])
			// Eq. (11) minima can be negative, so the paper's plain
			// minimum ratio is ill-defined here; compare the excess above
			// the known true minimum instead (≥1 means the model helped,
			// matching the paper's reading of the ratio). The excess is
			// floored at 0 (the brute-force reference can be a hair above
			// the actual optimum) and regularized so near-optimal pairs do
			// not produce unbounded ratios.
			const reg = 0.02
			exW := math.Max(wo-truth, 0)
			exM := math.Max(wi-truth, 0)
			rows = append(rows, Fig4AnalyticalRow{
				EpsTot:        eps,
				Task:          tasks[i][0],
				WithoutModel:  wo,
				WithModel:     wi,
				TrueMin:       truth,
				RatioNoModel:  (exW + reg) / (exM + reg),
				RatioTrueOver: exM,
			})
		}
	}
	return rows
}

// PrintFig4Analytical writes per-task ratios and the ≥1 counts the paper's
// legend reports.
func PrintFig4Analytical(w io.Writer, rows []Fig4AnalyticalRow) {
	fprintf(w, "Fig 4 (left): analytical function, performance-model benefit\n")
	for _, group := range groupByEps(rows, func(r Fig4AnalyticalRow) int { return r.EpsTot }) {
		var ratios []float64
		fprintf(w, "  eps_tot=%d:\n", group[0].EpsTot)
		for _, r := range group {
			fprintf(w, "   t=%-4g  no-model=%+.4f  with-model=%+.4f  true=%+.4f  ratio=%.3f\n",
				r.Task, r.WithoutModel, r.WithModel, r.TrueMin, r.RatioNoModel)
			ratios = append(ratios, r.RatioNoModel)
		}
		fprintf(w, "   tasks with ratio>=1 (model helped or tied): %d/%d, max ratio %.2f\n",
			countAtLeast(ratios, 1), len(ratios), maxOf(ratios))
	}
}

// Fig4QRRow holds one (ε_tot, task) result for PDGEQRF.
type Fig4QRRow struct {
	EpsTot       int
	M, N         float64
	WithoutModel float64
	WithModel    float64
	Ratio        float64
}

// Fig4QR reproduces Fig. 4 (right): PDGEQRF with the Eq. (7)–(10)
// performance model and on-the-fly coefficient estimation, 5 random tasks
// with m, n < 20000, ε_tot ∈ {10, 20, 40} (paper values; reduce for quick
// runs). The paper reports up to ~35% improvement at ε_tot=10, fading as
// ε_tot grows.
func Fig4QR(numTasks int, epsTots []int, seed int64, workers int) []Fig4QRRow {
	if numTasks <= 0 {
		numTasks = 5
	}
	if len(epsTots) == 0 {
		epsTots = []int{10, 20, 40}
	}
	app := scalapack.NewQR(16, 20000) // supplies the Eq. (7) model below
	base := scenarioProblem("qr", nil)
	tasks := randomTasks(base, numTasks, seed)
	var rows []Fig4QRRow
	for _, eps := range epsTots {
		opts := reducedOptions(seed, workers)
		opts.EpsTot = eps
		// Every evaluation is the minimum of 3 runs, as the paper's are.
		resBase := must(core.Run(core.MinOfRepeats(scenarioProblem("qr", nil), 3), tasks, opts))
		withModel := core.MinOfRepeats(scenarioProblem("qr", nil), 3)
		withModel.Model = app.PerfModel()
		optsM := opts
		optsM.FitModelCoeffs = true
		resModel := must(core.Run(withModel, tasks, optsM))
		for i := range tasks {
			wo := bestOf(&resBase.Tasks[i])
			wi := bestOf(&resModel.Tasks[i])
			rows = append(rows, Fig4QRRow{
				EpsTot: eps, M: tasks[i][0], N: tasks[i][1],
				WithoutModel: wo, WithModel: wi, Ratio: wo / wi,
			})
		}
	}
	return rows
}

// PrintFig4QR writes the QR model-benefit table.
func PrintFig4QR(w io.Writer, rows []Fig4QRRow) {
	fprintf(w, "Fig 4 (right): PDGEQRF with Eq.(7) performance model\n")
	for _, group := range groupByEps(rows, func(r Fig4QRRow) int { return r.EpsTot }) {
		var ratios []float64
		fprintf(w, "  eps_tot=%d:\n", group[0].EpsTot)
		for _, r := range group {
			fprintf(w, "   m=%-6.0f n=%-6.0f  no-model=%.3fs  with-model=%.3fs  ratio=%.3f\n",
				r.M, r.N, r.WithoutModel, r.WithModel, r.Ratio)
			ratios = append(ratios, r.Ratio)
		}
		fprintf(w, "   tasks with ratio>=1: %d/%d, max ratio %.2f, geomean %.3f\n",
			countAtLeast(ratios, 1), len(ratios), maxOf(ratios), geoMean(ratios))
	}
}

// groupByEps splits rows into groups of equal ε_tot, in the order each ε_tot
// first appears.
func groupByEps[R any](rows []R, eps func(R) int) [][]R {
	var groups [][]R
	at := map[int]int{} // ε_tot → its group's index
	for _, r := range rows {
		k, ok := at[eps(r)]
		if !ok {
			k = len(groups)
			at[eps(r)] = k
			groups = append(groups, nil)
		}
		groups[k] = append(groups[k], r)
	}
	return groups
}
