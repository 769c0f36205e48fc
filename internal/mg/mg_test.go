package mg

import (
	"math"
	"testing"
)

func onesRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return b
}

func defaultOpts() Options {
	return Options{
		Smoother:   GaussSeidel,
		PreSweeps:  1,
		PostSweeps: 1,
		Restrict:   Weighted,
		Interp:     Weighted,
	}
}

func TestHierarchyLevels(t *testing.T) {
	h, err := NewHierarchy(32, 32, 32, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, len(h.levels)) // unknowns per level, finest first
	for i, l := range h.levels {
		sizes[i] = l.n()
	}
	if len(sizes) < 3 {
		t.Fatalf("too few levels: %v", sizes)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] >= sizes[i-1] {
			t.Fatalf("levels not shrinking: %v", sizes)
		}
	}
	if h.FineN() != 32*32*32 {
		t.Fatalf("FineN = %d", h.FineN())
	}
}

func TestHierarchyRejectsTinyGrid(t *testing.T) {
	if _, err := NewHierarchy(1, 8, 8, defaultOpts()); err == nil {
		t.Fatalf("1-point dimension accepted")
	}
}

func TestAggressiveCoarseningFewerLevels(t *testing.T) {
	std, _ := NewHierarchy(48, 48, 48, defaultOpts())
	agg := defaultOpts()
	agg.CoarsenRatio = 4
	aggr, _ := NewHierarchy(48, 48, 48, agg)
	if aggr.Levels() >= std.Levels() {
		t.Fatalf("aggressive coarsening has %d levels, standard %d", aggr.Levels(), std.Levels())
	}
}

func TestApplyAMatchesLaplacianOn1DLikeGrid(t *testing.T) {
	// For u = constant on interior, A·u at the center of a large grid is
	// near zero away from boundaries only if u satisfies the equation...
	// Instead verify symmetry: (Au, v) == (u, Av) for random-ish u, v.
	h, _ := NewHierarchy(6, 5, 4, defaultOpts())
	n := h.FineN()
	u := make([]float64, n)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		u[i] = math.Sin(float64(i) * 0.7)
		v[i] = math.Cos(float64(i) * 0.3)
	}
	au := h.Apply(u)
	av := h.Apply(v)
	if math.Abs(dot(au, v)-dot(u, av)) > 1e-6*math.Abs(dot(au, v)) {
		t.Fatalf("operator not symmetric: %v vs %v", dot(au, v), dot(u, av))
	}
	// Positive definiteness on a random vector.
	if dot(au, u) <= 0 {
		t.Fatalf("uᵀAu = %v not positive", dot(au, u))
	}
}

// Multigrid-preconditioned GMRES must converge fast and to the right answer.
func TestMGGMRESSolvesPoisson(t *testing.T) {
	h, err := NewHierarchy(24, 24, 24, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	b := onesRHS(h.FineN())
	x, res, err := GMRES(h.Apply, h.Precondition, b, 30, 100, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.Iterations > 25 {
		t.Fatalf("MG-preconditioned GMRES took %d iterations", res.Iterations)
	}
	// True residual check.
	ax := h.Apply(x)
	r := 0.0
	for i := range ax {
		d := ax[i] - b[i]
		r += d * d
	}
	if math.Sqrt(r)/norm(b) > 1e-6 {
		t.Fatalf("true residual %v too large", math.Sqrt(r)/norm(b))
	}
}

func TestUnpreconditionedGMRESIsSlower(t *testing.T) {
	h, _ := NewHierarchy(16, 16, 16, defaultOpts())
	b := onesRHS(h.FineN())
	_, plain, err := GMRES(h.Apply, nil, b, 30, 200, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	_, mg, err := GMRES(h.Apply, h.Precondition, b, 30, 200, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if !mg.Converged {
		t.Fatalf("MG run failed: %+v", mg)
	}
	if plain.Converged && plain.Iterations <= mg.Iterations {
		t.Fatalf("preconditioning did not help: %d vs %d", plain.Iterations, mg.Iterations)
	}
}

func TestSmootherChoiceAffectsIterations(t *testing.T) {
	iters := map[Smoother]int{}
	for _, s := range []Smoother{Jacobi, GaussSeidel, SSOR} {
		o := defaultOpts()
		o.Smoother = s
		o.Omega = 0.8
		h, _ := NewHierarchy(20, 20, 20, o)
		_, res, err := GMRES(h.Apply, h.Precondition, onesRHS(h.FineN()), 30, 100, 1e-8)
		if err != nil || !res.Converged {
			t.Fatalf("smoother %v failed: %+v %v", s, res, err)
		}
		iters[s] = res.Iterations
	}
	// Gauss–Seidel should beat damped Jacobi as an MG smoother.
	if iters[GaussSeidel] > iters[Jacobi] {
		t.Fatalf("GS (%d iters) worse than Jacobi (%d)", iters[GaussSeidel], iters[Jacobi])
	}
}

func TestBadOmegaDiverges(t *testing.T) {
	// Over-relaxed Jacobi (ω=1.9) is an unstable smoother; the solver must
	// need clearly more iterations (or fail) compared to ω=0.8.
	good := defaultOpts()
	good.Smoother = Jacobi
	good.Omega = 0.8
	hGood, _ := NewHierarchy(16, 16, 16, good)
	_, resGood, _ := GMRES(hGood.Apply, hGood.Precondition, onesRHS(hGood.FineN()), 30, 100, 1e-8)

	bad := good
	bad.Omega = 1.9
	hBad, _ := NewHierarchy(16, 16, 16, bad)
	_, resBad, _ := GMRES(hBad.Apply, hBad.Precondition, onesRHS(hBad.FineN()), 30, 100, 1e-8)
	if resBad.Converged && resBad.Iterations <= resGood.Iterations {
		t.Fatalf("ω=1.9 (%d iters) not worse than ω=0.8 (%d)", resBad.Iterations, resGood.Iterations)
	}
}

func TestWCycleAtLeastAsGoodPerCycle(t *testing.T) {
	v := defaultOpts()
	hV, _ := NewHierarchy(20, 20, 20, v)
	w := defaultOpts()
	w.Cycle = WCycle
	hW, _ := NewHierarchy(20, 20, 20, w)
	_, resV, _ := GMRES(hV.Apply, hV.Precondition, onesRHS(hV.FineN()), 30, 100, 1e-8)
	_, resW, _ := GMRES(hW.Apply, hW.Precondition, onesRHS(hW.FineN()), 30, 100, 1e-8)
	if !resV.Converged || !resW.Converged {
		t.Fatalf("V/W failed: %+v %+v", resV, resW)
	}
	if resW.Iterations > resV.Iterations {
		t.Fatalf("W-cycle (%d) took more iterations than V-cycle (%d)", resW.Iterations, resV.Iterations)
	}
	// But W-cycles must cost more work per iteration.
	if hW.Flops <= hV.Flops && resW.Iterations == resV.Iterations {
		t.Fatalf("W-cycle reported no extra work")
	}
}

func TestAnisotropicGridSolves(t *testing.T) {
	h, err := NewHierarchy(40, 12, 7, defaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := GMRES(h.Apply, h.Precondition, onesRHS(h.FineN()), 30, 150, 1e-7)
	if err != nil || !res.Converged {
		t.Fatalf("anisotropic solve failed: %+v %v", res, err)
	}
}

func TestGMRESZeroRHS(t *testing.T) {
	h, _ := NewHierarchy(8, 8, 8, defaultOpts())
	x, res, err := GMRES(h.Apply, h.Precondition, make([]float64, h.FineN()), 10, 50, 1e-8)
	if err != nil || !res.Converged {
		t.Fatalf("zero rhs: %+v %v", res, err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatalf("nonzero solution for zero rhs")
		}
	}
}

func TestGMRESEmptySystem(t *testing.T) {
	if _, _, err := GMRES(nil, nil, nil, 10, 10, 1e-8); err == nil {
		t.Fatalf("empty system accepted")
	}
}

func TestFlopCounterMonotone(t *testing.T) {
	h, _ := NewHierarchy(12, 12, 12, defaultOpts())
	before := h.Flops
	h.Precondition(onesRHS(h.FineN()))
	if h.Flops <= before {
		t.Fatalf("flop counter did not advance")
	}
}

func TestChebyshevSmootherConverges(t *testing.T) {
	o := defaultOpts()
	o.Smoother = Chebyshev
	o.ChebyDegree = 3
	h, err := NewHierarchy(20, 20, 20, o)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := GMRES(h.Apply, h.Precondition, onesRHS(h.FineN()), 30, 100, 1e-8)
	if err != nil || !res.Converged {
		t.Fatalf("Chebyshev-smoothed MG failed: %+v %v", res, err)
	}
	if res.Iterations > 30 {
		t.Fatalf("Chebyshev MG took %d iterations", res.Iterations)
	}
}

func TestLambdaMaxEstimate(t *testing.T) {
	o := defaultOpts()
	h, _ := NewHierarchy(12, 12, 12, o)
	lmax := h.estimateLambdaMax(h.levels[0])
	// The Gershgorin bound for the 7-point Laplacian is exactly 2·diag.
	d := h.levels[0].diag
	if lmax != 2*d {
		t.Fatalf("lambdaMax bound %v, want %v", lmax, 2*d)
	}
	// Cached on repeat.
	if h.estimateLambdaMax(h.levels[0]) != lmax {
		t.Fatalf("estimate not cached")
	}
}

func TestChebyDegreeTradesWork(t *testing.T) {
	run := func(deg int) (int, int64) {
		o := defaultOpts()
		o.Smoother = Chebyshev
		o.ChebyDegree = deg
		h, _ := NewHierarchy(16, 16, 16, o)
		_, res, _ := GMRES(h.Apply, h.Precondition, onesRHS(h.FineN()), 30, 100, 1e-8)
		return res.Iterations, h.Flops
	}
	it1, _ := run(1)
	it4, fl4 := run(4)
	if it4 > it1 {
		t.Fatalf("higher degree should not need more iterations: %d vs %d", it4, it1)
	}
	if fl4 <= 0 {
		t.Fatalf("flops not counted")
	}
}
