package gp

import (
	"math"
	"math/rand"

	"repro/internal/la"
)

// The one oracle of the LCM: every quantity the engine, the prediction path
// and the append path compute, written entry by entry from the paper's
// equations, and the hostile corpus it is checked on. Σ, k* and the
// predictions are the production values bit for bit, because rbf rounds in
// the order la's lane kernels do; so is the likelihood, and the gradient is
// the textbook per-pair scatter, which agrees to a tolerance.

// rbf is the Gaussian kernel of Eq. (3) with unit σ_q (the paper fixes
// σ_q = 1): k(x, x') = exp(−Σ_d w_d·(x_d − x'_d)²) with w_d = 1/(2·l_d²)
// (halfInvSq). Difference, square, weighted product and sum are separate
// roundings, d ascending from +0 — the lane contract of la.NegSqDistInto and
// la.WeightedSumsInto, so assembleSigma and kstarInto produce these bits.
func rbf(x, y, w []float64) float64 {
	s := 0.0
	for d, wd := range w {
		diff := x[d] - y[d]
		sq := diff * diff
		s += wd * sq
	}
	return la.Exp(-s)
}

// halfInvSq returns rbf's weights 1/(2·l_d²) for lengthscales ls.
func halfInvSq(ls []float64) []float64 {
	w := make([]float64, len(ls))
	for d, l := range ls {
		w[d] = 0.5 / (l * l)
	}
	return w
}

// lcmLogLikGradReference is the straightforward O(Q·n²·β) evaluation of the
// LCM log marginal likelihood and gradient, recomputing every pairwise
// distance from the raw coordinates and scattering every pair of both
// triangles into the gradient serially, with the exact-zero skips the
// engine's lane kernels retired. The factor, α and Σ⁻¹ come from the la
// routines the engine calls, so where its Σ is the engine's the likelihood
// is too, and the gradient differs from the engine's only in the order its
// terms are summed: scale[p] is Σ|term| over grad[p]'s terms, which bounds
// what any order can change (a few n²·ε·scale). It is the oracle the
// cached/parallel lcmEngine is checked against and
// BenchmarkLCMLogLikGradReference's baseline. Production code must use
// lcmEngine.logLikGrad instead.
func lcmLogLikGradReference(theta []float64, layout hyperLayout, flatX [][]float64, taskOf []int, yn []float64) (ll float64, grad, scale []float64, err error) {
	m := thetaToModel(theta, layout)
	n := len(flatX)

	// Per-latent kernel matrices K_q (needed again in the gradient).
	kq := make([]*la.Matrix, layout.q)
	for q := range kq {
		w := halfInvSq(m.Ls[q])
		kq[q] = la.NewMatrix(n, n)
		for r := 0; r < n; r++ {
			for s := r; s < n; s++ {
				v := rbf(flatX[r], flatX[s], w)
				kq[q].Set(r, s, v)
				kq[q].Set(s, r, v)
			}
		}
	}
	sigma := la.NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for s := r; s < n; s++ {
			v := 0.0
			for q := 0; q < layout.q; q++ {
				v += m.coef(q, taskOf[r], taskOf[s]) * kq[q].At(r, s)
			}
			if r == s {
				v += m.D[taskOf[r]]
			}
			sigma.Set(r, s, v)
			sigma.Set(s, r, v)
		}
	}

	l, _, err := la.CholeskyJitter(sigma, 0, cholBlock, 1)
	if err != nil {
		return 0, nil, nil, err
	}
	alpha := la.SolveCholVec(l, yn)
	ll = -0.5*la.Dot(yn, alpha) - 0.5*la.LogDetFromChol(l) - 0.5*float64(n)*math.Log(2*math.Pi)

	// M = ααᵀ - Σ⁻¹; dL/dθ_p = ½ Σ_rs M_rs (∂Σ/∂θ_p)_rs.
	inv := la.ParallelCholInverse(l, 1)
	mm := la.NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for s := 0; s < n; s++ {
			mm.Set(r, s, alpha[r]*alpha[s]-inv.At(r, s))
		}
	}

	grad = make([]float64, layout.total())
	scale = make([]float64, layout.total())
	add := func(p int, term float64) {
		grad[p] += term
		scale[p] += math.Abs(term)
	}
	for q := 0; q < layout.q; q++ {
		aq := m.A[q]
		lsq := m.Ls[q]
		// Σ M_rs·k_q(r,s) over task i's block, and the same over |M_rs·k_q|.
		blockSum, blockAbs := make([]float64, layout.tasks), make([]float64, layout.tasks)
		for r := 0; r < n; r++ {
			tr := taskOf[r]
			for s := 0; s < n; s++ {
				ts := taskOf[s]
				mk := mm.At(r, s) * kq[q].At(r, s)
				if mk == 0 { //gptlint:ignore float-eq textbook oracle; its exact-zero skips are what makes the engine's 0·Inf corner visible
					continue
				}
				coef := m.coef(q, tr, ts)
				// Lengthscales (log-space chain rule: ×1/l² instead of 1/l³·l).
				if coef != 0 { //gptlint:ignore float-eq textbook oracle; its exact-zero skips are what makes the engine's 0·Inf corner visible
					base := 0.5 * mk * coef
					for d := 0; d < layout.dim; d++ {
						diff := flatX[r][d] - flatX[s][d]
						if diff2 := diff * diff; diff2 != 0 { //gptlint:ignore float-eq textbook oracle; its exact-zero skips are what makes the engine's 0·Inf corner visible
							add(layout.lsAt(q, d), base*diff2/(lsq[d]*lsq[d]))
						}
					}
				}
				// a_{m,q}: ∂Σ_rs/∂a_mq = δ(tr=m)·a_ts + δ(ts=m)·a_tr.
				add(layout.aAt(q, tr), 0.5*mk*aq[ts])
				add(layout.aAt(q, ts), 0.5*mk*aq[tr])
				if tr == ts {
					blockSum[tr] += mk
					blockAbs[tr] += math.Abs(mk)
				}
			}
		}
		// b_{m,q} (log-space: ∂Σ/∂log b is b·K_q on task m's block).
		for i := range blockSum {
			grad[layout.bAt(q, i)] = 0.5 * m.B[q][i] * blockSum[i]
			scale[layout.bAt(q, i)] = 0.5 * m.B[q][i] * blockAbs[i]
		}
	}
	// d_i (log-space: ×d).
	for r := 0; r < n; r++ {
		add(layout.dAt(taskOf[r]), 0.5*mm.At(r, r)*m.D[taskOf[r]])
	}
	return ll, grad, scale, nil
}

// covariance assembles the Eq. (4) covariance matrix of the given flattened
// samples entry by entry from the raw coordinates: Σ_q coef·k_q in q order,
// plus the task's noise on the diagonal. It is assembleSigma's Σ bit for bit.
func (m *LCM) covariance(flatX [][]float64, taskOf []int) *la.Matrix {
	n := len(flatX)
	w := make([][]float64, m.Q)
	for q := range w {
		w[q] = halfInvSq(m.Ls[q])
	}
	sigma := la.NewMatrix(n, n)
	for r := 0; r < n; r++ {
		for s := r; s < n; s++ {
			v := 0.0
			for q := 0; q < m.Q; q++ {
				v += m.coef(q, taskOf[r], taskOf[s]) * rbf(flatX[r], flatX[s], w[q])
			}
			if r == s {
				v += m.D[taskOf[r]]
			}
			sigma.Set(r, s, v)
			sigma.Set(s, r, v)
		}
	}
	return sigma
}

// refKstar is Eq. (5)'s cross-covariance of (task, x) with every training
// sample, entry by entry: Σ_q coef(q, task, t_r)·rbf(x, x_r) in q order. It is
// kstarInto's k* bit for bit.
func refKstar(m *LCM, task int, x []float64) []float64 {
	w := make([][]float64, m.Q)
	for q := range w {
		w[q] = halfInvSq(m.Ls[q])
	}
	kstar := make([]float64, len(m.flatX))
	for r, xr := range m.flatX {
		for q := 0; q < m.Q; q++ {
			kstar[r] += m.coef(q, task, m.taskOf[r]) * rbf(x, xr, w[q])
		}
	}
	return kstar
}

// refPredict is the naive allocating evaluation of Eqs. (5–6) that
// (*LCM).Predict used to be: k* from refKstar and the prior from the
// hyperparameter structs, no fit-time tables, one right-hand side. It is
// PredictInto's and PredictBatchInto's mean and variance bit for bit.
func refPredict(m *LCM, task int, x []float64) (mean, variance float64) {
	kstar := refKstar(m, task, x)
	mu := la.Dot(kstar, m.alpha)
	// Prior variance at x: Σ_q (a² + b)·k(x,x)=1 + d.
	prior := m.D[task]
	for q := 0; q < m.Q; q++ {
		prior += m.coef(q, task, task)
	}
	m.chol.ForwardSubst(kstar)
	variance = prior - la.Dot(kstar, kstar)
	if variance < 0 {
		variance = 0
	}
	mean = mu*m.yStd + m.yMean
	variance *= m.yStd * m.yStd
	return mean, variance
}

// sameBits is bit equality with all NaNs equal.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// gridDataset is syntheticDataset with the last ⌈dim/2⌉ coordinates drawn
// from a four-level grid, as integer and categorical tuning parameters
// normalize to: most pairs then have an exact-zero distance in some
// dimension, and some points coincide entirely.
func gridDataset(rng *rand.Rand, tasks, samples, dim int) *Dataset {
	d := syntheticDataset(rng, tasks, samples, dim, 0.05)
	for i := range d.X {
		for _, x := range d.X[i] {
			for k := dim / 2; k < dim; k++ {
				x[k] = float64(rng.Intn(4)) / 3
			}
		}
		if i > 0 {
			copy(d.X[i][0], d.X[0][0]) // one point shared across tasks
		}
	}
	return d
}

// hostileThetas returns hyperparameter vectors at the edges: lengthscales of
// +Inf (a dimension switched off) and 0 (log l = -Inf), tiny lengthscales
// whose kernel arguments leave exp's fast range, a diagonal boost that
// overflows, and huge and zero mixing coefficients.
func hostileThetas(layout hyperLayout, rng *rand.Rand) [][]float64 {
	var out [][]float64
	add := func(edit func(theta []float64)) {
		theta := randomInit(layout, rng)
		edit(theta)
		out = append(out, theta)
	}
	add(func(th []float64) { th[layout.lsAt(0, 0)] = math.Inf(1) })
	add(func(th []float64) { th[layout.lsAt(layout.q-1, layout.dim-1)] = math.Inf(-1) })
	add(func(th []float64) {
		for d := 0; d < layout.dim; d++ {
			th[layout.lsAt(0, d)] = -4 // l ≈ 0.018: arguments down to −1500 and below
		}
	})
	add(func(th []float64) { th[layout.bAt(0, 0)] = 800 }) // e^800 overflows
	add(func(th []float64) { th[layout.bAt(0, layout.tasks-1)] = 700 })
	add(func(th []float64) { th[layout.aAt(0, 0)] = 1e160 })
	add(func(th []float64) {
		for i := 0; i < layout.tasks; i++ {
			th[layout.aAt(0, i)] = 0
		}
	})
	add(func(th []float64) { th[layout.dAt(0)] = -800 }) // noise underflows to 0
	return out
}
