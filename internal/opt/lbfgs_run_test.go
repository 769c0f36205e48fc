package opt

import (
	"math"
	"testing"
)

// chainedRosenbrock is the golden test's objective: enough iterations to
// fill and roll the curvature ring and to backtrack in the line search.
func chainedRosenbrock(x, g []float64) float64 {
	for i := range g {
		g[i] = 0
	}
	s := 0.0
	for i := 0; i+1 < len(x); i++ {
		a, b := x[i], x[i+1]
		s += 100*(b-a*a)*(b-a*a) + (1-a)*(1-a)
		g[i] += -400*a*(b-a*a) - 2*(1-a)
		g[i+1] += 200 * (b - a*a)
	}
	return s
}

// illQuad is ½·Σ c_i·x_i² with the c_i spread over two decades, reported as
// `below` once its value is under floor — a floor of 0 never is.
func illQuad(dim int, floor, below float64) (GradObjective, []float64) {
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = 1 + 0.1*float64(i)
	}
	return func(x, g []float64) float64 {
		s := 0.0
		for i, v := range x {
			c := math.Pow(10, 3*float64(i)/float64(dim-1))
			s += 0.5 * c * v * v
			g[i] = c * v
		}
		if s < floor {
			return below
		}
		return s
	}, x0
}

// TestLBFGSRunResumesBitwise: a run advanced to iteration 10, then 40, then
// the cap — the modeling phase's rungs — and a run advanced one iteration at
// a time both end on the bits, and the evaluation count, of one
// uninterrupted LBFGS call. The table holds a run that goes the distance and
// one per stopping rule, each firing between the two rungs, so a stop is
// carried across a resume in every way it can arise.
func TestLBFGSRunResumesBitwise(t *testing.T) {
	const maxIter = 50
	quad, quadX0 := illQuad(6, 0, 0)
	plateau, _ := illQuad(6, 1e-3, 1e-3)
	negInf, _ := illQuad(6, 1e-3, math.Inf(-1))
	slopeQuad, slopeX0 := illQuad(5, 0, 0)
	for _, c := range []struct {
		name    string
		f       GradObjective
		x0      []float64
		stopped bool // a stopping rule ends the run, after iteration 10 and before 40
	}{
		{"rosenbrock-12d runs to the cap", chainedRosenbrock, []float64{-1.2, 1, -0.5, 0.8, -1.2, 1, -0.5, 0.8, -1.2, 1, -0.5, 0.8}, false},
		{"gradient tolerance", quad, quadX0, true},
		// Under the floor the value is flat and the gradient is not: the
		// quasi-Newton line search fails, the ring is dropped, the retry from
		// steepest descent fails too.
		{"line search fails twice", plateau, quadX0, true},
		{"non-finite value", negInf, quadX0, true},
		// A 1.99e-6 slope on f ≈ 4 is worth under 1e-12 a step once the
		// quadratic part is spent, and keeps ‖g‖∞ above its tolerance.
		{"five stalls", func(x, g []float64) float64 {
			v := slopeQuad(x[1:], g[1:])
			g[0] = -1.99e-6
			return 4 - 1.99e-6*x[0] + v
		}, append([]float64{0}, slopeX0...), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := LBFGS(c.f, c.x0, LBFGSParams{MaxIter: maxIter})
			f := Replayed(c.f, len(c.x0))

			rungs := NewLBFGSRun(c.x0)
			rungs.Advance(f, 10)
			if rungs.stopped {
				t.Fatalf("stopped within 10 iterations")
			}
			rungs.Advance(f, 40)
			if rungs.stopped != c.stopped {
				t.Fatalf("stopped by iteration 40: %v, want %v (at iteration %d)", rungs.stopped, c.stopped, rungs.iter)
			}
			rungs.Advance(f, maxIter)

			single := NewLBFGSRun(c.x0)
			for i := 1; i <= maxIter; i++ {
				single.Advance(f, i)
			}
			single.Advance(f, maxIter) // an Advance to where the run already is does nothing

			for name, r := range map[string]*LBFGSRun{"10/40/cap": rungs, "one at a time": single} {
				got := r.Result()
				if got.Evals != want.Evals {
					t.Errorf("%s: %d evaluations, uninterrupted run took %d", name, got.Evals, want.Evals)
				}
				if math.Float64bits(got.F) != math.Float64bits(want.F) {
					t.Errorf("%s: F = %v, uninterrupted %v", name, got.F, want.F)
				}
				for i := range want.X {
					if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
						t.Errorf("%s: X[%d] = %v, uninterrupted %v", name, i, got.X[i], want.X[i])
					}
				}
				if r.stopped != c.stopped {
					t.Errorf("%s: stopped = %v, want %v", name, r.stopped, c.stopped)
				}
			}
		})
	}
}

// TestLBFGSRunIterationAllocatesNothing: every buffer an iteration touches —
// the curvature pair it forms included — belongs to the run.
func TestLBFGSRunIterationAllocatesNothing(t *testing.T) {
	x0 := []float64{-1.2, 1, -0.5, 0.8, -1.2, 1, -0.5, 0.8}
	r := NewLBFGSRun(x0)
	f := Replayed(chainedRosenbrock, len(x0))
	r.Advance(f, 15) // the ring has rolled
	iter := 15
	allocs := testing.AllocsPerRun(20, func() {
		iter++
		r.Advance(f, iter)
	})
	if r.stopped {
		t.Fatalf("the run stopped at iteration %d; the measurement needs live iterations", r.iter)
	}
	if allocs != 0 {
		t.Errorf("an iteration allocates %v times, want 0", allocs)
	}
}

// TestLBFGSRunAsksGradientOnlyAtAcceptedPoints: a run over a split
// objective asks for the gradient once per point it moves to — at the x of
// the Value call just before, never twice — skips it at the line search's
// rejected trials, and walks the bits, and counts the evaluations, of LBFGS
// over the combined objective.
func TestLBFGSRunAsksGradientOnlyAtAcceptedPoints(t *testing.T) {
	x0 := []float64{-1.2, 1, -0.5, 0.8, -1.2, 1, -0.5, 0.8, -1.2, 1}
	const maxIter = 60
	want := LBFGS(chainedRosenbrock, x0, LBFGSParams{MaxIter: maxIter})

	last := make([]float64, len(x0))
	values, grads, asked := 0, 0, true
	f := SplitObjective{
		Value: func(x []float64) float64 {
			values++
			copy(last, x)
			asked = false
			return chainedRosenbrock(x, make([]float64, len(x)))
		},
		Grad: func(x, grad []float64) {
			grads++
			if asked {
				t.Fatalf("gradient asked for twice after value %d", values)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(last[i]) {
					t.Fatalf("gradient asked for at another point than value %d's", values)
				}
			}
			asked = true
			chainedRosenbrock(x, grad)
		},
	}
	r := NewLBFGSRun(x0)
	r.Advance(f, maxIter)
	got := r.Result()
	if got.Evals != want.Evals || values != want.Evals {
		t.Errorf("%d evaluations (%d values), combined run took %d", got.Evals, values, want.Evals)
	}
	if math.Float64bits(got.F) != math.Float64bits(want.F) {
		t.Errorf("F = %v, combined %v", got.F, want.F)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Errorf("X[%d] = %v, combined %v", i, got.X[i], want.X[i])
		}
	}
	if grads >= values {
		t.Errorf("%d gradients for %d values: no rejected trial point was spared one", grads, values)
	}
}
