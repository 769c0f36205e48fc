package experiments

import (
	"io"

	"repro/internal/acq"
	"repro/internal/apps/superlu"
	"repro/internal/bench"
	"repro/internal/core"
)

// ParetoPoint is one (time, memory) objective pair with its configuration.
type ParetoPoint struct {
	Time   float64
	Memory float64
	Config []float64
}

// Fig7SingleResult holds the Si2 single-task study: the multi-objective
// Pareto front, the single-objective minima, and the default configuration's
// objectives (Fig. 7 left + Table 5).
type Fig7SingleResult struct {
	Front      []ParetoPoint
	TimeOpt    ParetoPoint // single-objective time tuning
	MemOpt     ParetoPoint // single-objective memory tuning
	Default    ParetoPoint
	DefaultCfg []float64
}

// Fig7Single reproduces Fig. 7 (left) and Table 5 on matrix Si2 with 8
// nodes: multi-objective (time, memory) MLA with ε_tot=80 (scaled by
// epsTot), plus single-objective runs for each metric and the default
// configuration. Expected shape: single-objective minima on/near the front;
// default far from it in both dimensions.
func Fig7Single(epsTot int, seed int64, workers int) *Fig7SingleResult {
	if epsTot <= 0 {
		epsTot = 80
	}
	app := superlu.New(8) // supplies DefaultConfig/FactorCost comparisons
	task := []float64{0}  // Si2
	mo := scenarioProblem("superlu-mo", nil)
	opts := paperOptions(seed, workers)
	opts.EpsTot, opts.MOBatch = epsTot, 2
	resMO := must(core.Run(mo, [][]float64{task}, opts))
	out := &Fig7SingleResult{Front: frontOf(&resMO.Tasks[0])}

	// Single-objective runs: tune time only, then memory only, recording
	// both metrics of the winner for plotting.
	for _, which := range []int{0, 1} {
		inner := scenarioProblem("superlu-mo", nil).Objective
		p1 := scenarioProblem("superlu", bench.Params{"nodes": 8})
		p1.Objective = func(task, x []float64) ([]float64, error) {
			y, err := inner(task, x)
			if err != nil {
				return nil, err
			}
			return []float64{y[which]}, nil
		}
		res := must(core.Run(p1, [][]float64{task}, opts))
		bx, _ := res.Tasks[0].Best()
		tFull, mFull := app.FactorCost(0, superlu.ConfigFromVector(bx))
		pt := ParetoPoint{Time: tFull, Memory: mFull, Config: bx}
		if which == 0 {
			out.TimeOpt = pt
		} else {
			out.MemOpt = pt
		}
	}

	defCfg := app.DefaultConfig()
	dt, dm := app.FactorCost(0, defCfg)
	out.Default = ParetoPoint{Time: dt, Memory: dm, Config: superlu.ConfigToVector(defCfg)}
	out.DefaultCfg = superlu.ConfigToVector(defCfg)
	return out
}

// PrintFig7Single writes the front, the single-objective minima, the default
// point, and the Table 5 parameter comparison.
func PrintFig7Single(w io.Writer, r *Fig7SingleResult) {
	fprintf(w, "Fig 7 (left) + Table 5: SuperLU_DIST Si2, multi-objective (time, memory)\n")
	fprintf(w, "  Pareto front (%d points):\n", len(r.Front))
	for _, p := range r.Front {
		fprintf(w, "   time=%.4fs  memory=%.3gB\n", p.Time, p.Memory)
	}
	fprintf(w, "  single-objective time optimum:   time=%.4fs memory=%.3gB\n", r.TimeOpt.Time, r.TimeOpt.Memory)
	fprintf(w, "  single-objective memory optimum: time=%.4fs memory=%.3gB\n", r.MemOpt.Time, r.MemOpt.Memory)
	fprintf(w, "  default configuration:           time=%.4fs memory=%.3gB\n", r.Default.Time, r.Default.Memory)
	fprintf(w, "  improvement vs default: time %.0f%%, memory %.0f%%\n",
		100*(r.Default.Time-r.TimeOpt.Time)/r.Default.Time,
		100*(r.Default.Memory-r.MemOpt.Memory)/r.Default.Memory)
	fprintf(w, "  Table 5 (COLPERM LOOK p pr NSUP NREL):\n")
	fprintf(w, "   default: %v\n", r.DefaultCfg)
	fprintf(w, "   time:    %v\n", r.TimeOpt.Config)
	fprintf(w, "   memory:  %v\n", r.MemOpt.Config)
}

// Fig7MultiResult compares single-task and multitask multi-objective fronts
// per matrix.
type Fig7MultiResult struct {
	Matrix string
	Single []ParetoPoint
	Multi  []ParetoPoint
	// SingleDominatedByMulti counts single-task front points dominated by
	// some multitask point (the paper expects very few dominations in the
	// other direction).
	SingleDominating int // single points dominating some multi point
	MultiDominating  int // multi points dominating some single point
}

// Fig7Multi reproduces Fig. 7 (right): 8 PARSEC matrices, multi-objective
// tuning with δ=1 per matrix vs one δ=8 multitask run (ε_tot per task
// equal). The paper expects few single-task points to dominate multitask
// points.
func Fig7Multi(epsTot int, seed int64, workers int) []Fig7MultiResult {
	if epsTot <= 0 {
		epsTot = 20
	}
	mo := scenarioProblem("superlu-mo", nil)
	opts := paperOptions(seed, workers)
	opts.EpsTot, opts.MOBatch = epsTot, 2
	var tasks [][]float64
	for i := range superlu.PARSEC {
		tasks = append(tasks, []float64{float64(i)})
	}
	resMulti := must(core.Run(mo, tasks, opts))
	var out []Fig7MultiResult
	for i := range tasks {
		resSingle := must(core.Run(mo, tasks[i:i+1], opts))
		r := Fig7MultiResult{Matrix: superlu.PARSEC[i].Name}
		r.Single = frontOf(&resSingle.Tasks[0])
		r.Multi = frontOf(&resMulti.Tasks[i])
		for _, sp := range r.Single {
			for _, mp := range r.Multi {
				if acq.Dominates([]float64{sp.Time, sp.Memory}, []float64{mp.Time, mp.Memory}) {
					r.SingleDominating++
					break
				}
			}
		}
		for _, mp := range r.Multi {
			for _, sp := range r.Single {
				if acq.Dominates([]float64{mp.Time, mp.Memory}, []float64{sp.Time, sp.Memory}) {
					r.MultiDominating++
					break
				}
			}
		}
		out = append(out, r)
	}
	return out
}

func frontOf(tr *core.TaskResult) []ParetoPoint {
	var pts []ParetoPoint
	for _, idx := range tr.ParetoFront() {
		pts = append(pts, ParetoPoint{Time: tr.Y[idx][0], Memory: tr.Y[idx][1], Config: tr.X[idx]})
	}
	return pts
}

// PrintFig7Multi writes the per-matrix domination summary.
func PrintFig7Multi(w io.Writer, rows []Fig7MultiResult) {
	fprintf(w, "Fig 7 (right): single-task vs multitask multi-objective fronts\n")
	totalS, totalM := 0, 0
	for _, r := range rows {
		fprintf(w, "  %-10s single front %2d pts (%d dominate a multi pt) | multi front %2d pts (%d dominate a single pt)\n",
			r.Matrix, len(r.Single), r.SingleDominating, len(r.Multi), r.MultiDominating)
		totalS += r.SingleDominating
		totalM += r.MultiDominating
	}
	fprintf(w, "  totals: single-dominating %d, multi-dominating %d (paper: few single-task dominations)\n",
		totalS, totalM)
}
