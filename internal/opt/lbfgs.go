package opt

import (
	"math"
)

// GradObjective evaluates a scalar function and its gradient at x. The
// gradient must be written into grad (len(grad) == len(x)).
type GradObjective func(x []float64, grad []float64) float64

// SplitObjective is a scalar function in the two halves a line search asks
// for: Value at every trial point, and Grad, the gradient at x — the point
// of the Value call just before it, with no other evaluation between —
// written into grad. L-BFGS asks for Grad once per point it accepts and for
// no other, so an objective whose gradient costs more than its value (the
// LCM likelihood's inverse and sweep) pays for it only there. Like the
// package's other objectives, the halves are function values.
type SplitObjective struct {
	Value func(x []float64) float64
	Grad  func(x, grad []float64)
}

// Replayed adapts a GradObjective of n coordinates: Value evaluates both
// halves and keeps the gradient, Grad copies it out.
func Replayed(f GradObjective, n int) SplitObjective {
	g := make([]float64, n)
	return SplitObjective{
		Value: func(x []float64) float64 { return f(x, g) },
		Grad:  func(_, grad []float64) { copy(grad, g) },
	}
}

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
	lbfgsStalls    = 5     // consecutive stalls that stop the run
	lbfgsRing      = lbfgsMemory + 1
)

// LBFGS minimizes an unconstrained smooth function starting from x0 using
// the two-loop-recursion L-BFGS update with Armijo backtracking line search.
// This is the paper's hyperparameter optimizer (Section 3.1 modeling phase,
// citing Liu & Nocedal); positivity constraints on hyperparameters are
// handled by the caller via log-parameterization. It is a new LBFGSRun
// advanced to the iteration cap in one go, f computing value and gradient
// at every point and the run reading the gradient where it accepts one.
func LBFGS(f GradObjective, x0 []float64, params LBFGSParams) Result {
	params.defaults()
	r := NewLBFGSRun(x0)
	r.Advance(Replayed(f, len(x0)), params.MaxIter)
	return r.Result()
}

// LBFGSRun is one L-BFGS minimization that can be advanced a few iterations
// at a time: the iterate, its value and gradient, the ring of curvature
// pairs and the stall counter — everything an iteration reads — live here,
// so Advance(f, 10) followed by Advance(f, 40) walks bit for bit the
// iterates of one Advance(f, 40). The modeling phase races several runs this
// way and drops the losers between calls (gp.FitLCM).
//
// Every buffer is allocated by NewLBFGSRun; an iteration allocates nothing.
// A run serves one goroutine at a time.
type LBFGSRun struct {
	x, g    []float64
	fx      float64
	evals   int
	iter    int  // iterations consumed, counting the retry after a failed quasi-Newton direction
	stopped bool // a stopping rule fired (a tolerance, a non-finite value, a line search failing from steepest descent); further Advance calls do nothing
	stalls  int

	// Curvature pairs, oldest first, in slots head, head+1, … (mod
	// lbfgsRing) of a ring one slot larger than the memory: the slot after
	// the newest pair is where the next candidate pair is formed, so
	// rejecting it (sᵀy too small) costs no stored pair.
	s, y  [lbfgsRing][]float64
	rho   [lbfgsRing]float64
	head  int
	pairs int

	xNew, gNew, dir []float64
	alpha           [lbfgsMemory]float64
}

// NewLBFGSRun returns a run positioned at x0. Nothing is evaluated until the
// first Advance.
func NewLBFGSRun(x0 []float64) *LBFGSRun {
	n := len(x0)
	buf := make([]float64, (5+2*lbfgsRing)*n)
	next := func() []float64 {
		v := buf[:n:n]
		buf = buf[n:]
		return v
	}
	r := &LBFGSRun{x: next(), g: next(), xNew: next(), gNew: next(), dir: next()}
	for i := range r.s {
		r.s[i], r.y[i] = next(), next()
	}
	copy(r.x, x0)
	return r
}

// Advance runs iterations until the run has consumed iter of them in total
// or a stopping rule fires. f may be a different objective from call to call
// as long as it is the same function of x (the modeling phase hands a run to
// whichever worker's evaluation engine is free).
func (r *LBFGSRun) Advance(f SplitObjective, iter int) {
	if r.evals == 0 {
		r.fx = f.Value(r.x)
		f.Grad(r.x, r.g)
		r.evals = 1
	}
	for r.iter < iter && !r.stopped {
		r.stopped = !r.step(f)
		r.iter++
	}
}

// Result is the run's outcome so far (valid after the first Advance). X is
// the run's own iterate, not a copy: it changes if the run is advanced again.
func (r *LBFGSRun) Result() Result { return Result{X: r.x, F: r.fx, Evals: r.evals} }

// step is one iteration: direction, line search, curvature update. It
// reports whether the run goes on.
//
//gptlint:hotpath
func (r *LBFGSRun) step(f SplitObjective) bool {
	x, g, dir, xNew, gNew := r.x, r.g, r.dir, r.xNew, r.gNew
	fx := r.fx
	if infNorm(g) < lbfgsGradTol || math.IsNaN(fx) || math.IsInf(fx, 0) {
		return false
	}
	// Two-loop recursion: dir = -H·g.
	copy(dir, g)
	m := r.pairs
	for i := m - 1; i >= 0; i-- {
		k := (r.head + i) % lbfgsRing
		r.alpha[i] = r.rho[k] * dot(r.s[k], dir)
		axpy(-r.alpha[i], r.y[k], dir)
	}
	// Initial Hessian scaling γ = sᵀy / yᵀy; with no history yet, scale
	// so the first trial step has unit length (standard first-iteration
	// safeguard).
	if m > 0 {
		k := (r.head + m - 1) % lbfgsRing
		gamma := dot(r.s[k], r.y[k]) / dot(r.y[k], r.y[k])
		if gamma > 0 && !math.IsInf(gamma, 0) {
			scal(gamma, dir)
		}
	} else if gn := norm2(dir); gn > 1 {
		scal(1/gn, dir)
	}
	for i := 0; i < m; i++ {
		k := (r.head + i) % lbfgsRing
		beta := r.rho[k] * dot(r.y[k], dir)
		axpy(r.alpha[i]-beta, r.s[k], dir)
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
		r.pairs = 0
	}

	// Armijo backtracking (with plain-decrease fallback once the step is
	// small, which keeps progress in extremely narrow valleys). Trial points
	// are evaluated by value; the gradient is asked for at the accepted one.
	const c1 = 1e-4
	step := 1.0
	accepted := false
	var fNew float64
	for ls := 0; ls < lbfgsMaxLSIter; ls++ {
		for i := range x {
			xNew[i] = x[i] + step*dir[i]
		}
		fNew = f.Value(xNew)
		r.evals++
		if !math.IsNaN(fNew) && (fNew <= fx+c1*step*dg || (ls > 20 && fNew < fx)) {
			f.Grad(xNew, gNew)
			accepted = true
			break
		}
		step *= 0.5
	}
	if !accepted {
		// Quasi-Newton direction failed; discard curvature history and
		// retry from steepest descent (the retry counts as an iteration),
		// unless we already did.
		if r.pairs > 0 {
			r.pairs = 0
			return true
		}
		return false
	}

	// Update history: the candidate pair forms in the ring's spare slot.
	k := (r.head + r.pairs) % lbfgsRing
	s, y := r.s[k], r.y[k]
	for i := range x {
		s[i] = xNew[i] - x[i]
		y[i] = gNew[i] - g[i]
	}
	sy := dot(s, y)
	if sy > 1e-12*norm2(s)*norm2(y) {
		r.rho[k] = 1 / sy
		if r.pairs < lbfgsMemory {
			r.pairs++
		} else {
			r.head = (r.head + 1) % lbfgsRing
		}
	}

	relDrop := (fx - fNew) / math.Max(1, math.Abs(fx))
	copy(x, xNew)
	copy(g, gNew)
	r.fx = fNew
	// Stop only after several consecutive negligible decreases; a single
	// short backtracked step is normal in narrow valleys (Rosenbrock).
	if relDrop >= 0 && relDrop < lbfgsFTol {
		r.stalls++
		return r.stalls < lbfgsStalls
	}
	r.stalls = 0
	return true
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
