package gp

import (
	"fmt"

	"repro/internal/la"
)

// prepPredict builds the prediction fast-path tables for a fitted model:
// a dimension-major copy of the training coordinates, the task-pair
// coefficient table, the half-inverse-square lengthscales, and the per-task
// prior variance. Together they let PredictInto evaluate Eqs. (5–6) without
// touching the hyperparameter structs or allocating.
func (m *LCM) prepPredict() {
	m.transposeCoords()
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

// transposeCoords rebuilds xT, the dimension-major copy of flatX
// (xT[d*n+r] = flatX[r][d]): one dimension of all training points is
// contiguous, so kstarInto's distance pass runs four training rows per
// register. The stride is n, so a model that grew rebuilds it.
func (m *LCM) transposeCoords() {
	n := len(m.flatX)
	m.xT = make([]float64, m.Dim*n)
	for r, x := range m.flatX {
		for d, xd := range x {
			m.xT[d*n+r] = xd
		}
	}
}

// PredictWorkspace holds the scratch vectors one goroutine needs to run the
// allocation-free prediction path. Create one per goroutine with
// NewPredictWorkspace and reuse it across calls; it follows its model
// through AppendObservations.
type PredictWorkspace struct {
	kstar []float64
	v     []float64
	args  []float64 // [Q][n] kernel arguments, then kernel values, latent-major
}

// NewPredictWorkspace returns a workspace sized for m. A model restored from
// a hyperparameter-only snapshot holds no samples and gets an empty one;
// PredictInto refuses such a model.
func (m *LCM) NewPredictWorkspace() *PredictWorkspace {
	ws := &PredictWorkspace{}
	ws.resize(len(m.flatX), m.Q)
	return ws
}

// resize gives the workspace fresh buffers for a model of n samples and q
// latents.
func (ws *PredictWorkspace) resize(n, q int) {
	buf := make([]float64, (q+2)*n) //gptlint:ignore hotpath-alloc the one workspace allocation: at creation, and once after AppendObservations grew the model
	ws.kstar, ws.v, ws.args = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
}

// PredictInto returns the posterior mean and variance (Eqs. 5–6) of task's
// objective at normalized point x, in the original (de-standardized) units,
// without allocating: it works through ws's reusable buffers and the tables
// built at fit time. The PSO search loop calls this thousands of times per
// search phase. x must have the model's Dim coordinates.
//
//gptlint:hotpath
func (m *LCM) PredictInto(ws *PredictWorkspace, task int, x []float64) (mean, variance float64) {
	if m.chol == nil {
		panic("gp: PredictInto on unfitted model")
	}
	if len(x) != m.Dim {
		panic(fmt.Sprintf("gp: PredictInto point has %d coordinates, model has %d", len(x), m.Dim))
	}
	if n := len(m.flatX); len(ws.kstar) != n {
		// The model grew via AppendObservations since ws was sized; resize
		// once and stay allocation-free until the next append.
		ws.resize(n, m.Q)
	}
	m.kstarInto(ws, task, x)
	mu := la.Dot(ws.kstar, m.alpha)
	copy(ws.v, ws.kstar)
	m.chol.ForwardSubst(ws.v)
	variance = m.predPrior[task] - la.Dot(ws.v, ws.v)
	if variance < 0 {
		variance = 0
	}
	mean = mu*m.yStd + m.yMean
	variance *= m.yStd * m.yStd
	return mean, variance
}

// kstarInto fills ws.kstar with the cross-covariance vector k* for (task, x)
// and returns it, in three passes over the training set: per latent, the
// kernel arguments -Σ_d (x_d - x_r[d])²·(½/l_qd²) (la.NegSqDistInto, four
// training rows per register, d ascending from +0 as the per-row loop summed
// them), one la.ExpInto over all Q·n of them, and the scalar Σ_q c·k in q
// order with c from row (task, taskOf[r]) of the coefficient table. It is the
// one Gaussian-kernel evaluation outside the fit: AppendObservations builds
// its covariance rows through it too.
//
//gptlint:hotpath
func (m *LCM) kstarInto(ws *PredictWorkspace, task int, x []float64) []float64 {
	n := len(m.flatX)
	dim := m.Dim
	Q := m.Q
	for q := 0; q < Q; q++ {
		la.NegSqDistInto(ws.args[q*n:(q+1)*n], m.predWinv[q*dim:(q+1)*dim], x, m.xT, n)
	}
	la.ExpInto(ws.args, ws.args)
	coefs := m.coefTab[task*m.NumTasks*Q : (task+1)*m.NumTasks*Q]
	for r, tr := range m.taskOf {
		v := 0.0
		for q, c := range coefs[tr*Q : (tr+1)*Q] {
			if c == 0 { //gptlint:ignore float-eq exact-zero coefficient skip in the prediction fast path
				continue
			}
			v += c * ws.args[q*n+r]
		}
		ws.kstar[r] = v
	}
	return ws.kstar
}
