package opt

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// The golden tests pin each optimizer's built-in coefficients — PSO's
// inertia and pulls, NSGA-II's SBX / mutation indices and probabilities,
// L-BFGS's memory, tolerances and line-search cap, Nelder–Mead's initial
// simplex edge — to the last bit: zero-value params, a fixed seed and a
// small fixed problem, results compared at math.Float64bits. They were
// recorded while those values were still settable fields with defaults, so a
// constant that differs from the old default in any bit fails here. The
// benchmark's history hashes reach PSO and L-BFGS only; NSGA-II and
// Nelder–Mead have no other bitwise pin.

// foldBits writes the IEEE-754 bits of vals into h, for results too long to
// list value by value.
func foldBits(h hash.Hash64, vals ...float64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func checkBits(t *testing.T, what string, got []float64, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i, v := range got {
		if b := math.Float64bits(v); b != want[i] {
			t.Errorf("%s[%d] = %v (%#x), want %#x", what, i, v, b, want[i])
		}
	}
}

// bumpy is a shifted sphere with a ripple, so the swarm and the simplex keep
// moving for their whole budget.
func bumpy(x []float64) float64 {
	c := []float64{0.31, 0.74, 0.52}
	s := 0.0
	for i, v := range x {
		d := v - c[i]
		s += d*d + 0.05*math.Sin(17*v)
	}
	return s
}

func TestGoldenPSO(t *testing.T) {
	res := PSO(bumpy, 3, PSOParams{}, rand.New(rand.NewSource(1)))
	checkBits(t, "PSO.X", res.X, []uint64{0x3fd1fb4e83494283, 0x3fe50d4ac64ba587, 0x3fe4335964cc956c})
	checkBits(t, "PSO.F", []float64{res.F}, []uint64{0xbfc04bcba78682ab})
	if res.Evals != 1020 {
		t.Errorf("PSO.Evals = %d", res.Evals)
	}
}

func TestGoldenNSGAII(t *testing.T) {
	// ZDT1-shaped: f1 = x0, f2 = g·(1 − √(x0/g)), g = 1 + 9·mean(x1..).
	f := func(x []float64) []float64 {
		g := 1 + 9*(x[1]+x[2])/2
		return []float64{x[0], g * (1 - math.Sqrt(x[0]/g))}
	}
	front := NSGAII(lift(f), 3, NSGAIIParams{}, rand.New(rand.NewSource(2)))
	h := fnv.New64a()
	for _, p := range front {
		foldBits(h, p.X...)
		foldBits(h, p.F...)
	}
	if len(front) != 38 || h.Sum64() != 0x89420b8d68f90d11 {
		t.Errorf("NSGAII front: %d points, hash %#x", len(front), h.Sum64())
	}
}

func TestGoldenLBFGS(t *testing.T) {
	// Chained Rosenbrock in 4-D: enough iterations to fill and roll the
	// curvature history and to backtrack in the line search.
	f := func(x, g []float64) float64 {
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
	res := LBFGS(f, []float64{-1.2, 1, -0.5, 0.8}, LBFGSParams{})
	checkBits(t, "LBFGS.X", res.X, []uint64{0x3ff000000002d245, 0x3ff00000000600c2, 0x3ff00000001192fa, 0x3ff00000001fce53})
	checkBits(t, "LBFGS.F", []float64{res.F}, []uint64{0x3c31e76978b33500})
	if res.Evals != 55 {
		t.Errorf("LBFGS.Evals = %d", res.Evals)
	}

	// The stopping rules, each pinned at its threshold. Gradient tolerance:
	// ‖g‖∞ < 1e-6 stops before the first step, ‖g‖∞ = 1e-6 does not.
	quad := func(x, g []float64) float64 { g[0] = x[0]; return 0.5 * x[0] * x[0] }
	at := LBFGS(quad, []float64{1e-6}, LBFGSParams{}).Evals
	below := LBFGS(quad, []float64{math.Nextafter(1e-6, 0)}, LBFGSParams{}).Evals
	if at == 1 || below != 1 {
		t.Errorf("gradient tolerance: %d evals at 1e-6, %d just below; want > 1 and 1", at, below)
	}
	// Line search: 40 halvings against a NaN wall, then give up.
	wall := func(x, g []float64) float64 {
		g[0] = 1
		if x[0] == 0.5 {
			return 1
		}
		return math.NaN()
	}
	if evals := LBFGS(wall, []float64{0.5}, LBFGSParams{}).Evals; evals != 41 {
		t.Errorf("line search: %d evals against a wall, want 1 + 40", evals)
	}
	// Relative decrease: a slope s on f ≈ 4 drops s²/4 per step; five steps
	// under 1e-12 stop the run, steps just over it run to MaxIter.
	for _, c := range []struct {
		s     float64
		evals int
	}{{1.99e-6, 1 + 5}, {2.01e-6, 1 + 8}} {
		lin := func(x, g []float64) float64 { g[0] = -c.s; return 4 - c.s*x[0] }
		if evals := LBFGS(lin, []float64{0}, LBFGSParams{MaxIter: 8}).Evals; evals != c.evals {
			t.Errorf("relative decrease: slope %g took %d evals, want %d", c.s, evals, c.evals)
		}
	}
}

func TestGoldenNelderMead(t *testing.T) {
	// Random start (drawn from rng), then a fixed start whose first
	// coordinate sits within one simplex edge of the upper bound, so the
	// initial simplex takes its step-back branch.
	res := NelderMead(bumpy, 3, NelderMeadParams{}, rand.New(rand.NewSource(3)))
	checkBits(t, "NelderMead.X", res.X, []uint64{0x3fe34542a8ba7f5a, 0x3fe50fe9a09a4dc0, 0x3fe432fa6c6a895a})
	checkBits(t, "NelderMead.F", []float64{res.F}, []uint64{0xbf9de23230df4810})
	if res.Evals != 200 {
		t.Errorf("NelderMead.Evals = %d", res.Evals)
	}
	res = NelderMead(bumpy, 3, NelderMeadParams{Start: []float64{0.95, 0.5, 0.2}}, nil)
	checkBits(t, "NelderMead(start).X", res.X, []uint64{0x3fd1ff0433c0a79b, 0x3fe50fe9a2ac060f, 0x3fd3b5221fbd7e44})
	checkBits(t, "NelderMead(start).F", []float64{res.F}, []uint64{0xbfb6fc1d2def9ecf})
	if res.Evals != 200 {
		t.Errorf("NelderMead(start).Evals = %d", res.Evals)
	}
}
