package gp

import (
	"fmt"

	"repro/internal/la"
)

// prepPredict builds the prediction fast-path tables for a fitted model:
// a dimension-major copy of the training coordinates, the per-task
// cross-covariance coefficient table coef[task][r*Q+q] =
// A[q][task]·A[q][taskOf[r]] (+B[q][task] when the tasks match), the
// half-inverse-square lengthscales, and the per-task prior variance.
// Together they let PredictInto evaluate Eqs. (5–6) without touching the
// hyperparameter structs or allocating.
func (m *LCM) prepPredict() {
	n := len(m.flatX)
	m.transposeCoords()
	m.predWinv = make([]float64, m.Q*m.Dim)
	for q := 0; q < m.Q; q++ {
		for d := 0; d < m.Dim; d++ {
			l := m.Ls[q][d]
			m.predWinv[q*m.Dim+d] = 0.5 / (l * l)
		}
	}
	m.predCoef = make([][]float64, m.NumTasks)
	m.predPrior = make([]float64, m.NumTasks)
	for task := 0; task < m.NumTasks; task++ {
		row := make([]float64, n*m.Q)
		for r := 0; r < n; r++ {
			tr := m.taskOf[r]
			for q := 0; q < m.Q; q++ {
				row[r*m.Q+q] = m.coef(q, task, tr)
			}
		}
		m.predCoef[task] = row
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

// NewPredictWorkspace returns a workspace sized for m.
func (m *LCM) NewPredictWorkspace() *PredictWorkspace {
	if m.chol == nil {
		panic("gp: NewPredictWorkspace on unfitted model")
	}
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
	if m.predCoef == nil {
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
// order.
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
	coefs := m.predCoef[task]
	for r := 0; r < n; r++ {
		v := 0.0
		for q, c := range coefs[r*Q : (r+1)*Q] {
			if c == 0 { //gptlint:ignore float-eq exact-zero coefficient skip in the prediction fast path
				continue
			}
			v += c * ws.args[q*n+r]
		}
		ws.kstar[r] = v
	}
	return ws.kstar
}
