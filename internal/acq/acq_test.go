package acq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
	}
	for _, c := range cases {
		if got := normCDF(c.z); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Φ(%v) = %v, want %v", c.z, got, c.want)
		}
	}
}

func TestNormPDFSymmetricPeak(t *testing.T) {
	if math.Abs(normPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-15 {
		t.Fatalf("φ(0) wrong")
	}
	if normPDF(1.3) != normPDF(-1.3) {
		t.Fatalf("φ not symmetric")
	}
}

// Properties of EI: non-negative; zero variance at dominated points gives 0;
// increasing variance increases EI at a dominated mean.
func TestExpectedImprovementProperties(t *testing.T) {
	f := func(muRaw, vRaw, bestRaw float64) bool {
		mu := math.Mod(muRaw, 100)
		v := math.Abs(math.Mod(vRaw, 100))
		best := math.Mod(bestRaw, 100)
		if math.IsNaN(mu) || math.IsNaN(v) || math.IsNaN(best) {
			return true
		}
		ei := ExpectedImprovement(mu, v, best)
		return ei >= 0 && !math.IsNaN(ei)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if ExpectedImprovement(5, 0, 4) != 0 {
		t.Fatalf("EI with zero variance at dominated mean must be 0")
	}
	if ExpectedImprovement(3, 0, 4) != 1 {
		t.Fatalf("EI with zero variance below incumbent must equal improvement")
	}
	lowVar := ExpectedImprovement(5, 0.01, 4)
	highVar := ExpectedImprovement(5, 4, 4)
	if highVar <= lowVar {
		t.Fatalf("EI should grow with variance at dominated mean: %v vs %v", lowVar, highVar)
	}
}

func TestExpectedImprovementLimits(t *testing.T) {
	// Far below incumbent with tiny variance: EI ≈ improvement.
	ei := ExpectedImprovement(1, 1e-12, 5)
	if math.Abs(ei-4) > 1e-5 {
		t.Fatalf("EI = %v, want ≈ 4", ei)
	}
	// Far above incumbent with tiny variance: EI ≈ 0.
	if ei := ExpectedImprovement(10, 1e-12, 5); ei > 1e-10 {
		t.Fatalf("EI = %v, want ≈ 0", ei)
	}
}

func TestLCBAndPI(t *testing.T) {
	if LowerConfidenceBound(2, 4, 1) != 0 {
		t.Fatalf("LCB(2, 4, 1) should be 0")
	}
	if LowerConfidenceBound(2, -1, 1) != 2 {
		t.Fatalf("LCB with negative variance should clamp")
	}
	if p := ProbabilityOfImprovement(0, 1, 0); math.Abs(p-0.5) > 1e-12 {
		t.Fatalf("PI at incumbent mean should be 0.5, got %v", p)
	}
	if ProbabilityOfImprovement(1, 0, 2) != 1 || ProbabilityOfImprovement(3, 0, 2) != 0 {
		t.Fatalf("PI zero-variance cases wrong")
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{1, 2}, []float64{2, 3}, true},
		{[]float64{1, 2}, []float64{1, 2}, false},
		{[]float64{1, 3}, []float64{2, 2}, false},
		{[]float64{1, 2}, []float64{1, 3}, true},
	}
	for i, c := range cases {
		if got := Dominates(c.a, c.b); got != c.want {
			t.Errorf("case %d: Dominates(%v,%v) = %v", i, c.a, c.b, got)
		}
	}
}

func TestParetoFilterSmall(t *testing.T) {
	objs := [][]float64{
		{1, 5}, // front
		{2, 4}, // front
		{3, 3}, // front
		{3, 5}, // dominated by (1,5)? no: (1,5) vs (3,5): 1<3, 5=5 → dominates
		{2, 6}, // dominated by (1,5)
	}
	front := ParetoFilter(objs)
	want := map[int]bool{0: true, 1: true, 2: true}
	if len(front) != 3 {
		t.Fatalf("front = %v", front)
	}
	for _, i := range front {
		if !want[i] {
			t.Fatalf("unexpected front member %d", i)
		}
	}
}

// Property: no member of the Pareto front is dominated by any point.
func TestParetoFilterQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		objs := make([][]float64, n)
		for i := range objs {
			objs[i] = []float64{rng.Float64(), rng.Float64()}
		}
		front := ParetoFilter(objs)
		if len(front) == 0 {
			return false
		}
		inFront := map[int]bool{}
		for _, i := range front {
			inFront[i] = true
		}
		for _, i := range front {
			for j := range objs {
				if j != i && Dominates(objs[j], objs[i]) {
					return false
				}
			}
		}
		// Every non-front point must be dominated by someone.
		for j := range objs {
			if inFront[j] {
				continue
			}
			dominated := false
			for k := range objs {
				if k != j && Dominates(objs[k], objs[j]) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestExpectedImprovementDegenerateInputs: EI must stay finite and
// non-negative under every degenerate posterior a numerically stressed GP
// can emit — negative variance (cancellation at training points), NaN or
// infinite moments — so a single bad prediction can't poison a PSO swarm
// or an NSGA-II fitness comparison.
func TestExpectedImprovementDegenerateInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name             string
		mu, variance, yB float64
	}{
		{"negative variance improving", 1, -0.5, 5},
		{"negative variance dominated", 5, -0.5, 1},
		{"tiny negative variance", 2, -1e-300, 2},
		{"zero variance at incumbent", 2, 0, 2},
		{"denormal variance", 2, 5e-324, 3},
		{"nan mu", nan, 1, 0},
		{"nan variance", 0, nan, 1},
		{"nan incumbent", 0, 1, nan},
		{"inf variance", 0, inf, 1},
		{"-inf mu", math.Inf(-1), 1, 0},
		{"inf mu", inf, 1, 0},
		{"inf incumbent", 0, 1, inf},
	}
	for _, c := range cases {
		ei := ExpectedImprovement(c.mu, c.variance, c.yB)
		if math.IsNaN(ei) || math.IsInf(ei, 0) || ei < 0 {
			t.Errorf("%s: EI(%v, %v, %v) = %v; want finite non-negative", c.name, c.mu, c.variance, c.yB, ei)
		}
	}
	// The σ²→0⁺ limit: clamped variance reproduces the deterministic
	// improvement exactly, on both sides of the incumbent.
	if got := ExpectedImprovement(3, -1, 4); got != 1 {
		t.Errorf("EI with clamped variance below incumbent = %v, want 1", got)
	}
	if got := ExpectedImprovement(5, -1, 4); got != 0 {
		t.Errorf("EI with clamped variance at dominated mean = %v, want 0", got)
	}
}
