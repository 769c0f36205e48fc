// Package acq implements the acquisition functions of GPTune's search phase:
// Expected Improvement (Section 3.1) maximized by PSO, and the
// multi-objective utilities (Pareto dominance, non-dominated filtering) that
// back the NSGA-II-based search of Section 3.2.
package acq

import (
	"math"

	"repro/internal/la"
)

// normPDF is the standard normal density φ.
func normPDF(z float64) float64 {
	return la.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

// normCDF is the standard normal distribution Φ.
func normCDF(z float64) float64 {
	return 0.5 * la.Erfc(-z/math.Sqrt2)
}

// varianceFloor is the smallest posterior variance EI evaluates at. GP
// posteriors can report zero or slightly negative variance at (or numerically
// near) training points through cancellation in k** − kᵀK⁻¹k; flooring σ²
// keeps z = (yBest−μ)/σ finite there instead of dividing by zero. The floor
// is far below any meaningful predictive uncertainty, so Φ(z) and φ(z)
// saturate and EI degrades gracefully to max(yBest−μ, 0), the σ→0 limit.
const varianceFloor = 1e-18

// ExpectedImprovement returns EI(x) for a minimization problem given the
// posterior mean mu and variance at x and the incumbent best observation
// yBest:
//
//	EI = (yBest - μ)·Φ(z) + σ·φ(z),  z = (yBest - μ)/σ.
//
// EI is non-negative and tends to 0 as σ → 0 at dominated points. Degenerate
// posteriors are safe: non-positive, denormal, or +Inf variance is clamped
// and NaN anywhere yields 0, so the result is always finite and usable as a
// PSO/NSGA-II fitness value.
func ExpectedImprovement(mu, variance, yBest float64) float64 {
	if math.IsNaN(mu) || math.IsNaN(variance) || math.IsNaN(yBest) {
		return 0
	}
	if variance < varianceFloor {
		variance = varianceFloor
	} else if math.IsInf(variance, 1) {
		// Infinite uncertainty stays maximally attractive, just finite.
		variance = math.MaxFloat64
	}
	sigma := math.Sqrt(variance)
	z := (yBest - mu) / sigma
	ei := (yBest-mu)*normCDF(z) + sigma*normPDF(z)
	if ei < 0 || math.IsNaN(ei) {
		return 0
	}
	if math.IsInf(ei, 1) {
		return math.MaxFloat64
	}
	return ei
}

// LowerConfidenceBound returns μ - κ·σ, an alternative acquisition for
// minimization (smaller is more promising).
func LowerConfidenceBound(mu, variance, kappa float64) float64 {
	if variance < 0 {
		variance = 0
	}
	return mu - kappa*math.Sqrt(variance)
}

// ProbabilityOfImprovement returns P[f(x) < yBest].
func ProbabilityOfImprovement(mu, variance, yBest float64) float64 {
	if variance <= 0 {
		if mu < yBest {
			return 1
		}
		return 0
	}
	return normCDF((yBest - mu) / math.Sqrt(variance))
}

// Dominates reports Pareto dominance for minimization: a ≤ b componentwise
// with at least one strict inequality.
func Dominates(a, b []float64) bool {
	strict := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strict = true
		}
	}
	return strict
}

// ParetoFilter returns the indices of the non-dominated points among objs
// (each objs[i] is a γ-vector, minimized).
func ParetoFilter(objs [][]float64) []int {
	var front []int
	for i := range objs {
		dominated := false
		for j := range objs {
			if i != j && Dominates(objs[j], objs[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, i)
		}
	}
	return front
}
