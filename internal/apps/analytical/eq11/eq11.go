// Package eq11 holds the pure math of the paper's Eq. (11) benchmark
// function, split out of package analytical as a leaf that imports only la:
// the core engine's own tests evaluate it (they cannot import analytical,
// which registers itself with the workload registry and would close an
// import cycle back into core), and analytical delegates here so there is
// exactly one implementation in the tree. Its exponentials are la's, so an
// evaluation has the same bits on every machine, like the histories it
// lands in.
package eq11

import (
	"math"

	"repro/internal/la"
)

// Objective evaluates Eq. (11) of Section 6.3:
//
//	y(t,x) = 1 + e^{-(x+1)^{t+1}} cos(2πx) Σ_{i=1..5} sin(2πx(t+2)^i)
//
// on t ≥ −1 and x ≥ −1, where la.Pow is defined (NaN elsewhere); the
// study's spaces are t ∈ [0, 10] and x ∈ [0, 1].
func Objective(t, x float64) float64 {
	s := 0.0
	for i := 1; i <= 5; i++ {
		s += math.Sin(2 * math.Pi * x * la.Pow(t+2, float64(i)))
	}
	return 1 + la.Exp(-la.Pow(x+1, t+1))*math.Cos(2*math.Pi*x)*s
}

// TrueMin brute-forces the global minimum over x ∈ [0,1] on a grid fine
// enough to resolve the (t+2)^5 oscillation.
func TrueMin(t float64) (x, y float64) {
	// At least 20 points per period of the fastest component.
	steps := int(20 * math.Pow(t+2, 5))
	if steps < 1000 {
		steps = 1000
	}
	if steps > 5_000_000 {
		steps = 5_000_000
	}
	bestX, bestY := 0.0, math.Inf(1)
	for i := 0; i <= steps; i++ {
		xi := float64(i) / float64(steps)
		if yi := Objective(t, xi); yi < bestY {
			bestX, bestY = xi, yi
		}
	}
	return bestX, bestY
}
