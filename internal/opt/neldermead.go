package opt

import (
	"math"
	"math/rand"
	"sort"
)

// NelderMeadParams configures the downhill simplex method.
type NelderMeadParams struct {
	MaxEvals int // objective evaluation budget (default 200)
	Start    []float64
}

// NelderMead minimizes f over [0,1]^dim with the Nelder–Mead simplex method
// (one of the "local" model-free approaches of paper Section 5). Points are
// clipped to the box.
func NelderMead(f Objective, dim int, params NelderMeadParams, rng *rand.Rand) Result {
	if params.MaxEvals <= 0 {
		params.MaxEvals = 200
	}
	const (
		scale = 0.1 // initial simplex edge length
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)
	evals := 0
	eval := func(x []float64) float64 {
		evals++
		return f(clip01(x))
	}

	// Initial simplex around the start point.
	start := params.Start
	if start == nil {
		start = randomPoint(dim, rng)
	}
	type vertex struct {
		x []float64
		f float64
	}
	simplex := make([]vertex, dim+1)
	simplex[0] = vertex{x: clip01(append([]float64(nil), start...))}
	simplex[0].f = eval(simplex[0].x)
	for i := 1; i <= dim; i++ {
		x := append([]float64(nil), start...)
		x[i-1] += scale
		if x[i-1] > 1 {
			x[i-1] = start[i-1] - scale
		}
		simplex[i] = vertex{x: clip01(x)}
		simplex[i].f = eval(simplex[i].x)
	}

	centroid := make([]float64, dim)
	for evals < params.MaxEvals {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
		best, worst := simplex[0], simplex[dim]
		// Convergence: simplex collapsed.
		spread := 0.0
		for i := 1; i <= dim; i++ {
			for d := 0; d < dim; d++ {
				spread = math.Max(spread, math.Abs(simplex[i].x[d]-best.x[d]))
			}
		}
		if spread < 1e-10 {
			break
		}
		// Centroid of all but the worst.
		for d := range centroid {
			centroid[d] = 0
		}
		for i := 0; i < dim; i++ {
			for d := 0; d < dim; d++ {
				centroid[d] += simplex[i].x[d]
			}
		}
		for d := range centroid {
			centroid[d] /= float64(dim)
		}
		// Reflection.
		xr := make([]float64, dim)
		for d := range xr {
			xr[d] = centroid[d] + alpha*(centroid[d]-worst.x[d])
		}
		fr := eval(xr)
		switch {
		case fr < best.f:
			// Expansion.
			xe := make([]float64, dim)
			for d := range xe {
				xe[d] = centroid[d] + gamma*(xr[d]-centroid[d])
			}
			fe := eval(xe)
			if fe < fr {
				simplex[dim] = vertex{x: xe, f: fe}
			} else {
				simplex[dim] = vertex{x: xr, f: fr}
			}
		case fr < simplex[dim-1].f:
			simplex[dim] = vertex{x: xr, f: fr}
		default:
			// Contraction.
			xc := make([]float64, dim)
			for d := range xc {
				xc[d] = centroid[d] + rho*(worst.x[d]-centroid[d])
			}
			fc := eval(xc)
			if fc < worst.f {
				simplex[dim] = vertex{x: xc, f: fc}
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= dim; i++ {
					for d := 0; d < dim; d++ {
						simplex[i].x[d] = best.x[d] + sigma*(simplex[i].x[d]-best.x[d])
					}
					simplex[i].f = eval(simplex[i].x)
					if evals >= params.MaxEvals {
						break
					}
				}
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
	return Result{X: simplex[0].x, F: simplex[0].f, Evals: evals}
}
