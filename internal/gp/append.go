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
// prediction fast-path tables grow in place. Hyperparameters, the output
// standardization (yMean/yStd), and the base jitter are frozen at their
// fitted values — this is the "extend between refits" half of the
// RefitEvery contract; LogLik is not updated and refers to the last fit.
//
// The extension is bitwise identical for every workers value, and appending
// in one call is bitwise identical to appending the same rows across
// multiple calls. A model reloaded from MarshalBinary after an append
// refactorizes from scratch, which can differ from the live factor in the
// last bits — snapshots of appended models are for warm starts and
// cross-session transfer, not bitwise resume (in-run crash recovery replays
// the same fit+append sequence instead and stays exact).
//
// On error the model is left unchanged. A la.ErrNotPositiveDefinite means
// the new rows made the system numerically singular even after per-row
// jitter escalation; callers should fall back to a full refit.
func (m *LCM) AppendObservations(xs [][]float64, tasks []int, ys []float64, workers int) error {
	if m.chol == nil {
		return errors.New("gp: AppendObservations on a model without training state")
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

	// Cross-covariance panel against the existing samples (Eq. 4, no noise —
	// new points never coincide with an old sample index) and the corner
	// block among the new points (noise + the fitted base jitter on the
	// diagonal). Rows are independent, so the parallel build cannot change
	// any bit.
	cols := la.NewMatrix(k, n0)
	mpx.ParallelFor(k, workers, func(j int) {
		row := cols.Row(j)
		tj := tasks[j]
		for r := 0; r < n0; r++ {
			row[r] = m.crossCov(xs[j], tj, m.flatX[r], m.taskOf[r])
		}
	})
	corner := la.NewMatrix(k, k)
	for j := 0; j < k; j++ {
		for j2 := 0; j2 <= j; j2++ {
			v := m.crossCov(xs[j], tasks[j], xs[j2], tasks[j2])
			if j == j2 {
				v += m.D[tasks[j]] + m.Jitter
			}
			corner.Set(j, j2, v)
			corner.Set(j2, j, v)
		}
	}
	if _, err := m.chol.AppendRows(cols, corner, 0, workers); err != nil {
		return err
	}

	// Factor extended; now grow the training state and prediction tables.
	for j := 0; j < k; j++ {
		x := append(make([]float64, 0, m.Dim), xs[j]...)
		m.flatX = append(m.flatX, x)
		m.taskOf = append(m.taskOf, tasks[j])
		m.yNorm = append(m.yNorm, (ys[j]-m.yMean)/m.yStd)
	}
	m.transposeCoords()
	for task := 0; task < m.NumTasks; task++ {
		row := m.predCoef[task]
		for j := 0; j < k; j++ {
			for q := 0; q < m.Q; q++ {
				row = append(row, m.coef(q, task, tasks[j]))
			}
		}
		m.predCoef[task] = row
	}
	m.alpha = m.chol.SolveVec(m.yNorm)
	return nil
}

// crossCov evaluates the Eq. (4) covariance between two samples, noise
// excluded (the δ_jj'·d term is the caller's concern).
func (m *LCM) crossCov(x []float64, tx int, y []float64, ty int) float64 {
	v := 0.0
	for q := 0; q < m.Q; q++ {
		coef := m.coef(q, tx, ty)
		if coef != 0 { //gptlint:ignore float-eq exact-zero sparsity skip in covariance assembly
			v += coef * rbf(x, y, m.Ls[q])
		}
	}
	return v
}
