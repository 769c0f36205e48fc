package gp

import (
	"math"

	"repro/internal/la"
)

// rbf is the textbook Gaussian kernel of Eq. (3) with unit σ_q (the paper
// fixes σ_q = 1): k(x, x') = exp(-Σ_d (x_d - x'_d)² / (2 l_d²)). Production
// code evaluates it only in la's lane form (kstarInto, assembleSigma); this
// scalar form is the oracles'.
func rbf(x, y, lengthscales []float64) float64 {
	s := 0.0
	for d, ld := range lengthscales {
		diff := (x[d] - y[d]) / ld
		s += diff * diff
	}
	return math.Exp(-0.5 * s)
}

// lcmLogLikGradReference is the straightforward O(Q·n²·β) evaluation of the
// LCM log marginal likelihood and gradient, recomputing every pairwise
// distance from the raw coordinates and sweeping both triangles serially.
// It is retained verbatim as (a) the oracle the cached/parallel lcmEngine is
// checked against and (b) the pre-PR baseline for BenchmarkLCMLogLikGrad.
// Production code must use lcmEngine.logLikGrad instead.
func lcmLogLikGradReference(theta []float64, layout hyperLayout, flatX [][]float64, taskOf []int, yn []float64) (float64, []float64, error) {
	m := thetaToModel(theta, layout)
	n := len(flatX)

	// Per-latent kernel matrices K_q (needed again in the gradient).
	kq := make([]*la.Matrix, layout.q)
	for q := range kq {
		kq[q] = la.NewMatrix(n, n)
		for r := 0; r < n; r++ {
			for s := r; s < n; s++ {
				v := rbf(flatX[r], flatX[s], m.Ls[q])
				kq[q].Set(r, s, v)
				kq[q].Set(s, r, v)
			}
		}
	}
	sigma := la.NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for s := r; s < n; s++ {
			v := 0.0
			ti, tj := taskOf[r], taskOf[s]
			for q := 0; q < layout.q; q++ {
				coef := m.A[q][ti] * m.A[q][tj]
				if ti == tj {
					coef += m.B[q][ti]
				}
				v += coef * kq[q].At(r, s)
			}
			if r == s {
				v += m.D[ti]
			}
			sigma.Set(r, s, v)
			sigma.Set(s, r, v)
		}
	}

	l, err := refCholeskyJitter(sigma)
	if err != nil {
		return 0, nil, err
	}
	alpha := la.SolveCholVec(l, yn)
	ll := -0.5*la.Dot(yn, alpha) - 0.5*la.LogDetFromChol(l) - 0.5*float64(n)*math.Log(2*math.Pi)

	// M = ααᵀ - Σ⁻¹; dL/dθ_p = ½ Σ_rs M_rs (∂Σ/∂θ_p)_rs.
	inv := refCholInverse(l)
	mm := la.NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			mm.Set(r, s, alpha[r]*alpha[s]-inv.At(r, s))
		}
	}

	grad := make([]float64, layout.total())
	for q := 0; q < layout.q; q++ {
		aq := m.A[q]
		bq := m.B[q]
		lsq := m.Ls[q]
		// Precompute coefficient matrix entries on the fly.
		for r := 0; r < n; r++ {
			tr := taskOf[r]
			for s := 0; s < n; s++ {
				ts := taskOf[s]
				mk := mm.At(r, s) * kq[q].At(r, s)
				if mk == 0 { //gptlint:ignore float-eq frozen pre-parallelization oracle; exact-zero skip must match historic numerics
					continue
				}
				coef := aq[tr] * aq[ts]
				if tr == ts {
					coef += bq[tr]
				}
				// Lengthscales (log-space chain rule: ×1/l² instead of 1/l³·l).
				if coef != 0 { //gptlint:ignore float-eq frozen pre-parallelization oracle; exact-zero skip must match historic numerics
					base := 0.5 * mk * coef
					for d := 0; d < layout.dim; d++ {
						diff2 := sqDiff(flatX[r], flatX[s], d)
						if diff2 != 0 { //gptlint:ignore float-eq frozen pre-parallelization oracle; exact-zero skip must match historic numerics
							grad[layout.lsAt(q, d)] += base * diff2 / (lsq[d] * lsq[d])
						}
					}
				}
				// a_{m,q}: ∂Σ_rs/∂a_mq = δ(tr=m)·a_ts + δ(ts=m)·a_tr.
				grad[layout.aAt(q, tr)] += 0.5 * mk * aq[ts]
				grad[layout.aAt(q, ts)] += 0.5 * mk * aq[tr]
				// b_{m,q} (log-space: ×b).
				if tr == ts {
					grad[layout.bAt(q, tr)] += 0.5 * mk * bq[tr]
				}
			}
		}
	}
	// d_i (log-space: ×d).
	for r := 0; r < n; r++ {
		grad[layout.dAt(taskOf[r])] += 0.5 * mm.At(r, r) * m.D[taskOf[r]]
	}
	return ll, grad, nil
}

// sqDiff returns (x_d - y_d)² for one dimension.
func sqDiff(x, y []float64, d int) float64 {
	diff := x[d] - y[d]
	return diff * diff
}

// refCholesky is the pre-PR serial Cholesky with a single-accumulator inner
// product, frozen so the baseline benchmark does not drift as internal/la
// gets faster.
func refCholesky(a *la.Matrix) (*la.Matrix, error) {
	n := a.Rows
	l := la.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		li := l.Row(i)
		for j := 0; j <= i; j++ {
			lj := l.Row(j)
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			if i == j {
				if s <= 0 || math.IsNaN(s) {
					return nil, la.ErrNotPositiveDefinite
				}
				li[j] = math.Sqrt(s)
			} else {
				li[j] = s / lj[j]
			}
		}
	}
	return l, nil
}

// refCholeskyJitter is the pre-PR la.CholeskyJitter(·, 1e-10) on top of the
// frozen serial factorization.
func refCholeskyJitter(a *la.Matrix) (*la.Matrix, error) {
	n := a.Rows
	meanDiag := 0.0
	for i := 0; i < n; i++ {
		meanDiag += math.Abs(a.At(i, i))
	}
	if n > 0 {
		meanDiag /= float64(n)
	}
	if meanDiag == 0 { //gptlint:ignore float-eq frozen oracle; exact-zero guard before jitter scaling
		meanDiag = 1
	}
	jitter := 0.0
	for attempt := 0; attempt < 12; attempt++ {
		work := a
		if jitter > 0 {
			work = a.Clone()
			for i := 0; i < n; i++ {
				work.Data[i*n+i] += jitter
			}
		}
		l, err := refCholesky(work)
		if err == nil {
			return l, nil
		}
		if jitter == 0 { //gptlint:ignore float-eq frozen oracle; zero is the unset jitter sentinel
			jitter = 1e-10 * meanDiag
		} else {
			jitter *= 10
		}
	}
	return nil, la.ErrNotPositiveDefinite
}

// refCholInverse is the pre-PR serial (L·Lᵀ)⁻¹, frozen for the same reason.
func refCholInverse(l *la.Matrix) *la.Matrix {
	n := l.Rows
	wt := la.NewMatrix(n, n)
	for j := 0; j < n; j++ {
		row := wt.Row(j)
		row[j] = 1 / l.At(j, j)
		for k := j + 1; k < n; k++ {
			lk := l.Row(k)
			s := 0.0
			for m := j; m < k; m++ {
				s += lk[m] * row[m]
			}
			row[k] = -s / lk[k]
		}
	}
	inv := la.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		wi := wt.Row(i)
		for j := 0; j <= i; j++ {
			s := 0.0
			for k := i; k < n; k++ {
				s += wi[k] * wt.Row(j)[k]
			}
			inv.Data[i*n+j] = s
			inv.Data[j*n+i] = s
		}
	}
	return inv
}

// covariance assembles the full Eq. (4) covariance matrix for the given
// flattened samples, entry by entry from the raw coordinates. It left
// production when lcmEngine.assembleSigma took over every assembly; it stays
// here as the dense oracle the append and leave-one-out tests are checked
// against.
func (m *LCM) covariance(flatX [][]float64, taskOf []int) *la.Matrix {
	n := len(flatX)
	sigma := la.NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for s := r; s < n; s++ {
			v := 0.0
			ti, tj := taskOf[r], taskOf[s]
			for q := 0; q < m.Q; q++ {
				coef := m.A[q][ti] * m.A[q][tj]
				if ti == tj {
					coef += m.B[q][ti]
				}
				v += coef * rbf(flatX[r], flatX[s], m.Ls[q])
			}
			if r == s {
				v += m.D[ti]
			}
			sigma.Set(r, s, v)
			sigma.Set(s, r, v)
		}
	}
	return sigma
}

// refPredict is the naive allocating evaluation of Eqs. (5–6) that
// (*LCM).Predict used to be: k* entry by entry through rbf and the
// hyperparameter structs, no fit-time tables. It is the oracle PredictInto
// is checked against.
func refPredict(m *LCM, task int, x []float64) (mean, variance float64) {
	n := len(m.flatX)
	kstar := make([]float64, n)
	for r := 0; r < n; r++ {
		tr := m.taskOf[r]
		v := 0.0
		for q := 0; q < m.Q; q++ {
			coef := m.A[q][task] * m.A[q][tr]
			if task == tr {
				coef += m.B[q][task]
			}
			v += coef * rbf(x, m.flatX[r], m.Ls[q])
		}
		kstar[r] = v
	}
	mu := la.Dot(kstar, m.alpha)
	// Prior variance at x: Σ_q (a² + b)·k(x,x)=1 + d.
	prior := m.D[task]
	for q := 0; q < m.Q; q++ {
		prior += m.A[q][task]*m.A[q][task] + m.B[q][task]
	}
	v := la.CopyVec(kstar)
	m.chol.ForwardSubst(v)
	variance = prior - la.Dot(v, v)
	if variance < 0 {
		variance = 0
	}
	mean = mu*m.yStd + m.yMean
	variance *= m.yStd * m.yStd
	return mean, variance
}
