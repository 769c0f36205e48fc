// Package opt implements the optimization algorithms GPTune builds on:
//
//   - L-BFGS for maximizing the LCM log-likelihood (paper Section 3.1,
//     modeling phase);
//   - Particle Swarm Optimization for maximizing Expected Improvement
//     (search phase);
//   - NSGA-II for multi-objective search (Section 3.2);
//   - Nelder–Mead for the performance-model coefficient fit (Section 3.3).
//
// All box-constrained algorithms operate on the unit hypercube [0,1]^dim;
// callers denormalize via a space.Space.
package opt

import "math/rand"

// Objective is a scalar function to be minimized over [0,1]^dim.
type Objective func(x []float64) float64

// BatchObjective scores every point of xs into out (len(out) == len(xs)),
// out[k] being what the scalar objective returns for xs[k] alone. The points
// are the optimizer's; f must not keep or modify them.
type BatchObjective func(xs [][]float64, out []float64)

// MultiObjective sets out[k] to the γ objective values, to be minimized over
// [0,1]^dim, of each point xs[k] (len(out) == len(xs)). The points are the
// optimizer's; f must not keep or modify them. The optimizer keeps every
// out[k].
type MultiObjective func(xs, out [][]float64)

// clip01 clamps x into [0,1] in place and returns it.
func clip01(x []float64) []float64 {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		} else if v > 1 {
			x[i] = 1
		}
	}
	return x
}

// randomPoint draws a uniform point in [0,1]^dim.
func randomPoint(dim int, rng *rand.Rand) []float64 {
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.Float64()
	}
	return x
}

// Result is the outcome of a single-objective minimization.
type Result struct {
	X     []float64 // minimizer found
	F     float64   // objective value at X
	Evals int       // objective evaluations consumed
}
