package opt

import (
	"math"
)

// GradObjective evaluates a scalar function and its gradient at x. The
// gradient must be written into grad (len(grad) == len(x)).
type GradObjective func(x []float64, grad []float64) float64

// LBFGSParams configures the limited-memory BFGS minimizer.
type LBFGSParams struct {
	MaxIter int // iteration cap (default 200)
}

func (p *LBFGSParams) defaults() {
	if p.MaxIter <= 0 {
		p.MaxIter = 200
	}
}

const (
	lbfgsMemory    = 10    // curvature pairs kept
	lbfgsGradTol   = 1e-6  // stop when ‖g‖∞ falls below it
	lbfgsFTol      = 1e-12 // a relative decrease below it counts as a stall
	lbfgsMaxLSIter = 40    // line-search step halvings
)

// LBFGS minimizes an unconstrained smooth function starting from x0 using
// the two-loop-recursion L-BFGS update with Armijo backtracking line search.
// This is the paper's hyperparameter optimizer (Section 3.1 modeling phase,
// citing Liu & Nocedal); positivity constraints on hyperparameters are
// handled by the caller via log-parameterization.
func LBFGS(f GradObjective, x0 []float64, params LBFGSParams) Result {
	params.defaults()
	n := len(x0)
	x := append([]float64(nil), x0...)
	g := make([]float64, n)
	fx := f(x, g)
	evals := 1

	type pair struct {
		s, y []float64
		rho  float64
	}
	var hist []pair

	xNew := make([]float64, n)
	gNew := make([]float64, n)
	dir := make([]float64, n)
	alphaBuf := make([]float64, lbfgsMemory)
	stalls := 0

	for iter := 0; iter < params.MaxIter; iter++ {
		if infNorm(g) < lbfgsGradTol || math.IsNaN(fx) || math.IsInf(fx, 0) {
			break
		}
		// Two-loop recursion: dir = -H·g.
		copy(dir, g)
		m := len(hist)
		for i := m - 1; i >= 0; i-- {
			h := hist[i]
			alphaBuf[i] = h.rho * dot(h.s, dir)
			axpy(-alphaBuf[i], h.y, dir)
		}
		// Initial Hessian scaling γ = sᵀy / yᵀy; with no history yet, scale
		// so the first trial step has unit length (standard first-iteration
		// safeguard).
		if m > 0 {
			h := hist[m-1]
			gamma := dot(h.s, h.y) / dot(h.y, h.y)
			if gamma > 0 && !math.IsInf(gamma, 0) {
				scal(gamma, dir)
			}
		} else if gn := norm2(dir); gn > 1 {
			scal(1/gn, dir)
		}
		for i := 0; i < m; i++ {
			h := hist[i]
			beta := h.rho * dot(h.y, dir)
			axpy(alphaBuf[i]-beta, h.s, dir)
		}
		for i := range dir {
			dir[i] = -dir[i]
		}
		// Descent check; fall back to steepest descent.
		dg := dot(dir, g)
		if dg >= 0 || math.IsNaN(dg) {
			for i := range dir {
				dir[i] = -g[i]
			}
			dg = -dot(g, g)
			hist = hist[:0]
		}

		// Armijo backtracking (with plain-decrease fallback once the step is
		// small, which keeps progress in extremely narrow valleys).
		const c1 = 1e-4
		step := 1.0
		accepted := false
		var fNew float64
		for ls := 0; ls < lbfgsMaxLSIter; ls++ {
			for i := range x {
				xNew[i] = x[i] + step*dir[i]
			}
			fNew = f(xNew, gNew)
			evals++
			if !math.IsNaN(fNew) && (fNew <= fx+c1*step*dg || (ls > 20 && fNew < fx)) {
				accepted = true
				break
			}
			step *= 0.5
		}
		if !accepted {
			// Quasi-Newton direction failed; discard curvature history and
			// retry from steepest descent, unless we already did.
			if len(hist) > 0 {
				hist = hist[:0]
				continue
			}
			break
		}

		// Update history.
		s := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			s[i] = xNew[i] - x[i]
			y[i] = gNew[i] - g[i]
		}
		sy := dot(s, y)
		if sy > 1e-12*norm2(s)*norm2(y) {
			hist = append(hist, pair{s: s, y: y, rho: 1 / sy})
			if len(hist) > lbfgsMemory {
				hist = hist[1:]
			}
		}

		relDrop := (fx - fNew) / math.Max(1, math.Abs(fx))
		copy(x, xNew)
		copy(g, gNew)
		fx = fNew
		// Stop only after several consecutive negligible decreases; a single
		// short backtracked step is normal in narrow valleys (Rosenbrock).
		if relDrop >= 0 && relDrop < lbfgsFTol {
			stalls++
			if stalls >= 5 {
				break
			}
		} else {
			stalls = 0
		}
	}
	return Result{X: x, F: fx, Evals: evals}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

func scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

func norm2(x []float64) float64 { return math.Sqrt(dot(x, x)) }

func infNorm(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
