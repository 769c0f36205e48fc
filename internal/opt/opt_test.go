package opt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/acq"
)

// sphere has its minimum 0 at center c.
func sphere(c []float64) Objective {
	return func(x []float64) float64 {
		s := 0.0
		for i, v := range x {
			d := v - c[i]
			s += d * d
		}
		return s
	}
}

func TestLBFGSQuadratic(t *testing.T) {
	// f(x) = Σ w_i (x_i - c_i)², analytic gradient; must reach the exact
	// minimum in a handful of iterations.
	c := []float64{1.5, -2, 0.25, 7}
	w := []float64{1, 10, 0.1, 3}
	f := func(x, g []float64) float64 {
		s := 0.0
		for i := range x {
			d := x[i] - c[i]
			s += w[i] * d * d
			g[i] = 2 * w[i] * d
		}
		return s
	}
	res := LBFGS(f, []float64{0, 0, 0, 0}, LBFGSParams{})
	if res.F > 1e-10 {
		t.Fatalf("LBFGS quadratic: f = %v at %v", res.F, res.X)
	}
	for i := range c {
		if math.Abs(res.X[i]-c[i]) > 1e-5 {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], c[i])
		}
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	f := func(x, g []float64) float64 {
		a, b := x[0], x[1]
		g[0] = -400*a*(b-a*a) - 2*(1-a)
		g[1] = 200 * (b - a*a)
		return 100*(b-a*a)*(b-a*a) + (1-a)*(1-a)
	}
	res := LBFGS(f, []float64{-1.2, 1}, LBFGSParams{MaxIter: 500})
	if res.F > 1e-8 {
		t.Fatalf("Rosenbrock: f = %v at %v after %d evals", res.F, res.X, res.Evals)
	}
}

func TestLBFGSHandlesNaNStart(t *testing.T) {
	f := func(x, g []float64) float64 {
		g[0] = math.NaN()
		return math.NaN()
	}
	res := LBFGS(f, []float64{1}, LBFGSParams{})
	if len(res.X) != 1 {
		t.Fatalf("result shape wrong")
	}
}

func TestPSOSphere(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := []float64{0.3, 0.7, 0.5}
	res := PSO(sphere(c), 3, PSOParams{Particles: 30, MaxIter: 80}, rng)
	if res.F > 1e-4 {
		t.Fatalf("PSO sphere: f = %v at %v", res.F, res.X)
	}
}

func TestPSOSeeds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := []float64{0.111, 0.222}
	// Seed the exact optimum; PSO must keep it as global best.
	res := PSO(sphere(c), 2, PSOParams{Particles: 5, MaxIter: 3, Seeds: [][]float64{c}}, rng)
	if res.F > 1e-12 {
		t.Fatalf("seeded optimum lost: f = %v", res.F)
	}
}

func TestPSOStaysInBox(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(x []float64) float64 {
		for _, v := range x {
			if v < 0 || v > 1 {
				t.Fatalf("PSO evaluated out-of-box point %v", x)
			}
		}
		return -x[0] // push toward the boundary
	}
	res := PSO(f, 2, PSOParams{Particles: 10, MaxIter: 50}, rng)
	if res.X[0] < 0.99 {
		t.Fatalf("PSO did not reach boundary: %v", res.X)
	}
}

func TestNelderMeadSphere(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := []float64{0.4, 0.6}
	res := NelderMead(sphere(c), 2, NelderMeadParams{MaxEvals: 400, Start: []float64{0.9, 0.1}}, rng)
	if res.F > 1e-6 {
		t.Fatalf("NelderMead: f = %v at %v", res.F, res.X)
	}
}

// lift scores a population one point at a time.
func lift(f func(x []float64) []float64) MultiObjective {
	return func(xs, out [][]float64) {
		for k, x := range xs {
			out[k] = f(x)
		}
	}
}

// Property: no point in the NSGA-II front dominates another.
func TestNSGAIIFrontIsNonDominated(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Classic convex bi-objective: f1 = x0, f2 = 1 - sqrt(x0) + penalty.
	f := func(x []float64) []float64 {
		g := 1.0
		for _, v := range x[1:] {
			g += 9 * v / float64(len(x)-1)
		}
		f1 := x[0]
		f2 := g * (1 - math.Sqrt(f1/g))
		return []float64{f1, f2}
	}
	front := NSGAII(lift(f), 4, NSGAIIParams{PopSize: 40, Generations: 60}, rng)
	if len(front) < 5 {
		t.Fatalf("front too small: %d", len(front))
	}
	for i := range front {
		for j := range front {
			if i != j && acq.Dominates(front[i].F, front[j].F) {
				t.Fatalf("front point %v dominates %v", front[i].F, front[j].F)
			}
		}
	}
	// ZDT1 front: f2 = 1 - sqrt(f1); verify points are near it.
	for _, p := range front {
		want := 1 - math.Sqrt(p.F[0])
		if p.F[1]-want > 0.3 {
			t.Fatalf("front point (%v, %v) far from true front (%v)", p.F[0], p.F[1], want)
		}
	}
}

// Property: fast non-dominated sort agrees with a brute-force rank
// computation on random populations.
func TestRankAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		pop := make([]*individual, n)
		for i := range pop {
			pop[i] = &individual{f: []float64{rng.Float64(), rng.Float64()}}
		}
		rankAndCrowd(pop)
		// Brute force: rank 0 = non-dominated; rank k = non-dominated after
		// removing ranks < k.
		want := make([]int, n)
		assigned := make([]bool, n)
		for rank := 0; ; rank++ {
			var frontIdx []int
			for i := range pop {
				if assigned[i] {
					continue
				}
				dominated := false
				for j := range pop {
					if j == i || assigned[j] {
						continue
					}
					if acq.Dominates(pop[j].f, pop[i].f) {
						dominated = true
						break
					}
				}
				if !dominated {
					frontIdx = append(frontIdx, i)
				}
			}
			if len(frontIdx) == 0 {
				break
			}
			for _, i := range frontIdx {
				want[i] = rank
				assigned[i] = true
			}
		}
		for i := range pop {
			if pop[i].rank != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSBXAndMutationStayInBox(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		p1 := randomPoint(3, rng)
		p2 := randomPoint(3, rng)
		c1, c2 := sbxCrossover(p1, p2, rng)
		polyMutate(c1, rng)
		polyMutate(c2, rng)
		for _, c := range [][]float64{c1, c2} {
			for _, v := range c {
				if v < 0 || v > 1 {
					t.Fatalf("child out of box: %v", c)
				}
			}
		}
	}
}

func TestDedupFront(t *testing.T) {
	front := []ParetoResult{
		{F: []float64{1, 2}},
		{F: []float64{1, 2}},
		{F: []float64{2, 1}},
	}
	got := dedupFront(front)
	if len(got) != 2 {
		t.Fatalf("dedup kept %d points", len(got))
	}
}
