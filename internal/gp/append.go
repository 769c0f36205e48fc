package gp

import (
	"errors"
	"fmt"

	"repro/internal/la"
	"repro/internal/mpx"
)

// AppendObservations extends a fitted model with new observations without
// re-learning hyperparameters: the covariance factorization grows by k rows
// through the packed Cholesky extension (O(k·n²) against the O(n³) of a
// refit), the alpha solve is redone against the extended factor, and the
// training-row tables are rebuilt. Hyperparameters, the output
// standardization (yMean/yStd), and the base jitter are frozen at their
// fitted values — this is the "extend between refits" half of the
// RefitEvery contract; LogLik is not updated and refers to the last fit.
//
// The extension is bitwise identical for every workers value, and appending
// in one call is bitwise identical to appending the same rows across
// multiple calls. The new covariance rows are the ones a refactorization at
// the same hyperparameters assembles, bit for bit, so an appended model and
// the same training set factored afresh at its hyperparameters predict
// identically while they fit in one cholBlock; past that the blocked
// Cholesky sums in another order and the two can differ in the last bits
// (in-run crash recovery replays the same fit+append sequence instead and
// stays exact, and a snapshot carries only the hyperparameters).
//
// On error the model is left unchanged. A la.ErrNotPositiveDefinite means
// the new rows made the system numerically singular even after per-row
// jitter escalation; callers should fall back to a full refit.
func (m *LCM) AppendObservations(xs [][]float64, tasks []int, ys []float64, workers int) error {
	if m.chol == nil {
		return errors.New("gp: AppendObservations on an unfitted model")
	}
	k := len(xs)
	if len(tasks) != k || len(ys) != k {
		return fmt.Errorf("gp: AppendObservations got %d points, %d tasks, %d outputs", k, len(tasks), len(ys))
	}
	if k == 0 {
		return nil
	}
	for j, x := range xs {
		if tasks[j] < 0 || tasks[j] >= m.NumTasks {
			return fmt.Errorf("gp: AppendObservations point %d task %d out of range", j, tasks[j])
		}
		if err := checkSample(x, ys[j], m.Dim); err != nil {
			return fmt.Errorf("gp: AppendObservations point %d %w", j, err)
		}
	}
	n0 := len(m.flatX)
	if workers < 1 {
		workers = 1
	}

	// Grow the training coordinates first, so that new point j's k* against
	// all n0+k rows is its row of the extended Eq. (4) covariance without
	// noise: the entries below n0 are its panel row, the next j+1 its corner
	// row, whose diagonal gets the noise and the fitted base jitter in the
	// order factorize adds them. Rows are independent, so the parallel build
	// cannot change any bit.
	for j, x := range xs {
		m.flatX = append(m.flatX, append(make([]float64, 0, m.Dim), x...))
		m.taskOf = append(m.taskOf, tasks[j])
	}
	m.trainingTables(nil)
	cols := la.NewMatrix(k, n0)
	corner := la.NewMatrix(k, k)
	mpx.ParallelFor(k, workers, func(j int) {
		ws := m.NewPredictWorkspace()
		kstar := m.KStarInto(ws, ws.cols[0], tasks[j], xs[j])
		copy(cols.Row(j), kstar[:n0])
		row := corner.Row(j)[:j+1]
		copy(row, kstar[n0:])
		row[j] = (row[j] + m.D[tasks[j]]) + m.Jitter
	})
	if _, err := m.chol.AppendRows(cols, corner, 0, workers); err != nil {
		m.flatX, m.taskOf = m.flatX[:n0], m.taskOf[:n0]
		m.trainingTables(nil)
		return err
	}
	for _, y := range ys {
		m.yNorm = append(m.yNorm, (y-m.yMean)/m.yStd)
	}
	m.alpha = m.chol.SolveVec(m.yNorm)
	return nil
}
