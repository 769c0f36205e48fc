package gp

import (
	"math"

	"repro/internal/la"
)

// prepPredict builds the prediction fast-path tables for a fitted model:
// a contiguous copy of the training coordinates, the per-task
// cross-covariance coefficient table coef[task][r*Q+q] =
// A[q][task]·A[q][taskOf[r]] (+B[q][task] when the tasks match), the
// half-inverse-square lengthscales, and the per-task prior variance.
// Together they let PredictInto evaluate Eqs. (5–6) without touching the
// hyperparameter structs or allocating.
func (m *LCM) prepPredict() {
	n := len(m.flatX)
	m.xflat = make([]float64, n*m.Dim)
	for r, x := range m.flatX {
		copy(m.xflat[r*m.Dim:], x)
	}
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

// PredictWorkspace holds the scratch vectors one goroutine needs to run the
// allocation-free prediction path. Create one per goroutine with
// NewPredictWorkspace and reuse it across calls; it is sized for the model
// that created it.
type PredictWorkspace struct {
	kstar []float64
	v     []float64
	diff2 []float64
}

// NewPredictWorkspace returns a workspace sized for m.
func (m *LCM) NewPredictWorkspace() *PredictWorkspace {
	if m.chol == nil {
		panic("gp: NewPredictWorkspace on unfitted model")
	}
	return &PredictWorkspace{
		kstar: make([]float64, len(m.flatX)),
		v:     make([]float64, len(m.flatX)),
		diff2: make([]float64, m.Dim),
	}
}

// PredictInto returns the posterior mean and variance (Eqs. 5–6) of task's
// objective at normalized point x, in the original (de-standardized) units,
// without allocating: it works through ws's reusable buffers and the tables
// built at fit time. The PSO search loop calls this thousands of times per
// search phase.
//
//gptlint:hotpath
func (m *LCM) PredictInto(ws *PredictWorkspace, task int, x []float64) (mean, variance float64) {
	if m.predCoef == nil {
		panic("gp: PredictInto on unfitted model")
	}
	if n := len(m.flatX); len(ws.kstar) != n {
		// The model grew via AppendObservations since ws was created; resize
		// once and stay allocation-free until the next append.
		ws.kstar = make([]float64, n) //gptlint:ignore hotpath-alloc one-time workspace resize after AppendObservations grew the model
		ws.v = make([]float64, n)     //gptlint:ignore hotpath-alloc one-time workspace resize after AppendObservations grew the model
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
// and returns it.
//
//gptlint:hotpath
func (m *LCM) kstarInto(ws *PredictWorkspace, task int, x []float64) []float64 {
	n := len(m.flatX)
	dim := m.Dim
	Q := m.Q
	coefs := m.predCoef[task]
	diff2 := ws.diff2
	for r := 0; r < n; r++ {
		xr := m.xflat[r*dim : (r+1)*dim]
		for d, xd := range x {
			diff := xd - xr[d]
			diff2[d] = diff * diff
		}
		coefRow := coefs[r*Q : (r+1)*Q]
		v := 0.0
		for q, c := range coefRow {
			if c == 0 { //gptlint:ignore float-eq exact-zero coefficient skip in the prediction fast path
				continue
			}
			acc := 0.0
			w := m.predWinv[q*dim : (q+1)*dim]
			for d, sd := range diff2 {
				acc += w[d] * sd
			}
			v += c * math.Exp(-acc)
		}
		ws.kstar[r] = v
	}
	return ws.kstar
}
