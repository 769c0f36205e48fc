// Package gp implements the surrogate models of the paper's Section 3: the
// Linear Coregionalization Model (LCM) that generalizes Gaussian process
// regression to the multitask setting (Eqs. 1–4), its log-marginal-likelihood
// with analytic gradients, multi-start L-BFGS hyperparameter learning, and
// the posterior prediction equations (Eqs. 5–6).
//
// Single-task GP regression is the δ=1, Q=1 special case of the LCM, exactly
// as "single-task learning" in the paper is GPTune run with one task.
package gp

import "math"

// rbf evaluates the Gaussian kernel of Eq. (3) with unit σ_q (the paper
// fixes σ_q = 1): k(x, x') = exp(-Σ_d (x_d - x'_d)² / (2 l_d²)).
func rbf(x, y, lengthscales []float64) float64 {
	s := 0.0
	for d, ld := range lengthscales {
		diff := (x[d] - y[d]) / ld
		s += diff * diff
	}
	return math.Exp(-0.5 * s)
}
