package gp

import (
	"fmt"

	"repro/internal/la"
)

// prepPredict builds the prediction fast-path tables for a fitted model:
// the training-row tables (trainingTables, over xT when it is not nil), the
// task-pair coefficient table, the half-inverse-square lengthscales, and the
// per-task prior variance. Together they let PredictInto evaluate Eqs. (5–6)
// without touching the hyperparameter structs or allocating.
func (m *LCM) prepPredict(xT []float64) {
	m.trainingTables(xT)
	m.predWinv = make([]float64, m.Q*m.Dim)
	for q := 0; q < m.Q; q++ {
		for d := 0; d < m.Dim; d++ {
			l := m.Ls[q][d]
			m.predWinv[q*m.Dim+d] = 0.5 / (l * l)
		}
	}
	m.coefTab = make([]float64, m.NumTasks*m.NumTasks*m.Q)
	m.coefTable(m.coefTab)
	m.predPrior = make([]float64, m.NumTasks)
	for task := 0; task < m.NumTasks; task++ {
		prior := m.D[task]
		for q := 0; q < m.Q; q++ {
			prior += m.coef(q, task, task)
		}
		m.predPrior[task] = prior
	}
}

// trainingTables rebuilds what KStarInto reads off the training rows: xT,
// the dimension-major copy of flatX (xT[d*n+r] = flatX[r][d]), whose
// distance pass runs four rows per register, and taskOf's run table runEnd.
// Both depend on n, so a model that grew rebuilds them. A caller that holds
// flatX's dimension-major copy already (the fit's pairCache, which nothing
// writes) passes it as xT; nil makes a fresh one.
func (m *LCM) trainingTables(xT []float64) {
	if xT == nil {
		xT = dimMajor(m.flatX, m.Dim)
	}
	m.xT = xT
	m.runEnd = runEnds(m.taskOf)
}

// PriorVariance is the posterior's prior variance of task at any point, in
// standardized units: Σ_q (a_q,task² + b_q,task) + d_task, k(x, x) being 1.
func (m *LCM) PriorVariance(task int) float64 { return m.predPrior[task] }

// PredictWorkspace holds the scratch vectors one goroutine needs to run the
// allocation-free prediction path. Create one per goroutine with
// NewPredictWorkspace and reuse it across calls; it follows its model
// through AppendObservations.
type PredictWorkspace struct {
	cols [la.MaxRHS][]float64 // a PredictBatchInto group: one point's k* each, then L⁻¹k* in place
	args []float64            // [Q][n] kernel arguments, then kernel values, latent-major
}

// NewPredictWorkspace returns a workspace sized for m.
func (m *LCM) NewPredictWorkspace() *PredictWorkspace {
	ws := &PredictWorkspace{}
	ws.resize(len(m.flatX), m.Q)
	return ws
}

// resize gives the workspace fresh buffers for a model of n samples and q
// latents.
func (ws *PredictWorkspace) resize(n, q int) {
	buf := make([]float64, (q+la.MaxRHS)*n) //gptlint:ignore hotpath-alloc the one workspace allocation: at creation, and once after AppendObservations grew the model
	for j := range ws.cols {
		ws.cols[j] = buf[j*n : (j+1)*n : (j+1)*n]
	}
	ws.args = buf[la.MaxRHS*n:]
}

// PredictInto returns the posterior mean and variance (Eqs. 5–6) of task's
// objective at normalized point x, in the original (de-standardized) units,
// without allocating: it works through ws's reusable buffers and the tables
// built at fit time. x must have the model's Dim coordinates. It is
// PredictBatchInto of one point.
//
//gptlint:hotpath
func (m *LCM) PredictInto(ws *PredictWorkspace, task int, x []float64) (mean, variance float64) {
	var mu, v [1]float64
	m.PredictBatchInto(ws, task, [][]float64{x}, mu[:], v[:])
	return mu[0], v[0]
}

// PredictBatchInto writes the posterior mean and variance of task's
// objective at each normalized point xs[j] into mean[j] and variance[j],
// bit for bit what PredictInto returns for that point alone, without
// allocating. Points go in groups of la.MaxRHS (four): k* per point, then
// one multi-right-hand-side forward solve L⁻¹k* for the group's variances —
// a single pass over the packed factor where one point at a time takes four
// — then per point the Dots and de-standardization. The PSO search scores its
// candidates through this thousands of times per search phase.
//
//gptlint:hotpath
func (m *LCM) PredictBatchInto(ws *PredictWorkspace, task int, xs [][]float64, mean, variance []float64) {
	if m.chol == nil {
		panic("gp: PredictInto on unfitted model")
	}
	if len(mean) != len(xs) || len(variance) != len(xs) {
		panic(fmt.Sprintf("gp: PredictBatchInto of %d points into %d means and %d variances", len(xs), len(mean), len(variance)))
	}
	for j, x := range xs {
		if len(x) != m.Dim {
			panic(fmt.Sprintf("gp: predicted point %d has %d coordinates, model has %d", j, len(x), m.Dim))
		}
	}
	if n := len(m.flatX); len(ws.cols[0]) != n {
		// The model grew via AppendObservations since ws was sized; resize
		// once and stay allocation-free until the next append.
		ws.resize(n, m.Q)
	}
	for len(xs) > 0 {
		cols := ws.cols[:min(len(xs), la.MaxRHS)]
		for j, col := range cols {
			m.KStarInto(ws, col, task, xs[j])
			mean[j] = la.Dot(col, m.alpha)
		}
		m.chol.ForwardSubst(cols...)
		for j, col := range cols {
			v := m.predPrior[task] - la.Dot(col, col)
			if v < 0 {
				v = 0
			}
			mean[j] = mean[j]*m.yStd + m.yMean
			variance[j] = v * (m.yStd * m.yStd)
		}
		xs, mean, variance = xs[len(cols):], mean[len(cols):], variance[len(cols):]
	}
}

// KStarInto fills dst, one entry per training sample, with Eq. (5)'s k* for
// (task, x) and returns it; ws must be sized for m's current n. Three passes,
// the first and last on assembleSigma's lane kernels: per latent the
// arguments -Σ_d (x_d - x_r[d])²·(½/l_qd²) (la.NegSqDistInto, d ascending
// from +0), one la.ExpInto over all Q·n (in ws.args), and per run of
// same-task rows Σ_q C_q·k_q by la.WeightedSumsInto with row (task, t_r) of
// the coefficient table, q ascending from +0 (scale 1 is exact). It is the
// one Gaussian-kernel evaluation outside the fit: the append path's
// covariance rows and the sparse GP's kernel rows come from it.
//
//gptlint:hotpath
func (m *LCM) KStarInto(ws *PredictWorkspace, dst []float64, task int, x []float64) []float64 {
	n := len(m.flatX)
	dim := m.Dim
	Q := m.Q
	for q := 0; q < Q; q++ {
		la.NegSqDistInto(ws.args[q*n:(q+1)*n], m.predWinv[q*dim:(q+1)*dim], x, m.xT, n)
	}
	la.ExpInto(ws.args, ws.args)
	coefs := m.coefTab[task*m.NumTasks*Q : (task+1)*m.NumTasks*Q]
	for r := 0; r < n; r = m.runEnd[r] {
		tr := m.taskOf[r]
		la.WeightedSumsInto(dst[r:m.runEnd[r]], coefs[tr*Q:(tr+1)*Q], ws.args[r:], n, 1)
	}
	return dst
}
