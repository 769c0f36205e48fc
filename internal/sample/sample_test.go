package sample

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/space"
)

// Property: LHS stratification — in every dimension, the sorted values fall
// one per stratum [k/n, (k+1)/n).
func TestLatinHypercubeStratification(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		dim := 1 + rng.Intn(6)
		pts := LatinHypercube(n, dim, rng)
		for d := 0; d < dim; d++ {
			vals := make([]float64, n)
			for i := range pts {
				vals[i] = pts[i][d]
			}
			sort.Float64s(vals)
			for k, v := range vals {
				lo := float64(k) / float64(n)
				hi := float64(k+1) / float64(n)
				if v < lo || v >= hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLatinHypercubeDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if LatinHypercube(0, 3, rng) != nil {
		t.Fatalf("n=0 should return nil")
	}
	if LatinHypercube(3, 0, rng) != nil {
		t.Fatalf("dim=0 should return nil")
	}
	one := LatinHypercube(1, 2, rng)
	if len(one) != 1 || len(one[0]) != 2 {
		t.Fatalf("n=1 design wrong: %v", one)
	}
}

func TestFeasibleLHSRespectsConstraints(t *testing.T) {
	s := space.MustNew(space.NewInteger("p", 1, 64), space.NewInteger("pr", 1, 64))
	pi, pr := s.IndexOf("p"), s.IndexOf("pr")
	s.AddConstraint("pr<=p", func(x []float64) bool { return x[pr] <= x[pi] })
	rng := rand.New(rand.NewSource(4))
	pts, err := FeasibleLHS(s, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 50 {
		t.Fatalf("got %d points", len(pts))
	}
	for _, p := range pts {
		if !s.Feasible(p) {
			t.Fatalf("infeasible point %v", p)
		}
	}
}

func TestFeasibleUniformEmptyRegion(t *testing.T) {
	s := space.MustNew(space.NewReal("x", 0, 1))
	s.AddConstraint("never", func([]float64) bool { return false })
	rng := rand.New(rand.NewSource(5))
	if _, err := FeasibleUniform(s, 1, rng); err == nil {
		t.Fatalf("expected error for empty feasible region")
	}
	if _, err := FeasibleLHS(s, 1, rng); err == nil {
		t.Fatalf("expected error for empty feasible region (LHS)")
	}

	// A region that closes after its first point: the design finds that
	// point, the top-up finds none, and the error counts both phases.
	s = space.MustNew(space.NewReal("x", 0, 1))
	open := true
	s.AddConstraint("once", func([]float64) bool { ok := open; open = false; return ok })
	_, err := FeasibleLHS(s, 3, rng)
	if err == nil || !strings.Contains(err.Error(), "could not find 3 feasible points (found 1;") {
		t.Fatalf("FeasibleLHS over a region that closes after one point: %v", err)
	}
}

func TestFeasibleUniformBasic(t *testing.T) {
	s := space.MustNew(space.NewReal("x", 2, 4), space.NewCategorical("c", "a", "b"))
	rng := rand.New(rand.NewSource(6))
	pts, err := FeasibleUniform(s, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p[0] < 2 || p[0] > 4 || (p[1] != 0 && p[1] != 1) {
			t.Fatalf("bad native point %v", p)
		}
	}
}
