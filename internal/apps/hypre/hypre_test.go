package hypre

import (
	"testing"

	"repro/internal/mg"
)

// defaultConfig mirrors hypre-ish defaults.
func defaultConfig() Config {
	return Config{
		Px: 1, Py: 1,
		Coarsen:  0,
		Restrict: mg.Weighted, Interp: mg.Weighted,
		Smoother: mg.GaussSeidel, Omega: 1.0,
		PreSweeps: 1, PostSweeps: 1,
		Cycle: mg.VCycle, CoarseSize: 8, Restart: 30,
	}
}

// configToVector converts a Config to the native tuning vector, configOf's
// inverse.
func configToVector(c Config) []float64 {
	return []float64{
		float64(c.Px), float64(c.Py), float64(c.Coarsen), float64(c.Restrict),
		float64(c.Interp), float64(c.Smoother), c.Omega, float64(c.PreSweeps),
		float64(c.PostSweeps), float64(c.Cycle), float64(c.CoarseSize), float64(c.Restart),
	}
}

func TestRuntimePositiveAndScalesWithGrid(t *testing.T) {
	a := New(1)
	cfg := defaultConfig()
	small := a.Runtime(10, 10, 10, cfg)
	big := a.Runtime(100, 100, 100, cfg)
	if small <= 0 || big <= 0 {
		t.Fatalf("nonpositive runtime: %v %v", small, big)
	}
	if big <= small {
		t.Fatalf("100³ (%v) not slower than 10³ (%v)", big, small)
	}
}

func TestBadSmootherWeightCostsTime(t *testing.T) {
	a := New(1)
	good := defaultConfig()
	good.Smoother = mg.Jacobi
	good.Omega = 0.8
	bad := good
	bad.Omega = 1.9
	tg := a.Runtime(40, 40, 40, good)
	tb := a.Runtime(40, 40, 40, bad)
	if tb <= tg {
		t.Fatalf("divergent smoother (%v) not slower than damped (%v)", tb, tg)
	}
}

func TestNoSmoothingIsWorse(t *testing.T) {
	a := New(1)
	cfg := defaultConfig()
	none := cfg
	none.PreSweeps, none.PostSweeps = 0, 0 // mg clamps to one post sweep
	base := a.Runtime(30, 30, 30, cfg)
	if base <= 0 {
		t.Fatalf("base %v", base)
	}
	_ = none // clamped internally; just ensure it evaluates
	if v := a.Runtime(30, 30, 30, none); v <= 0 {
		t.Fatalf("clamped config broke: %v", v)
	}
}

func TestProcessGridMatters(t *testing.T) {
	a := New(4) // 128 processes
	cfg := defaultConfig()
	// Very skewed grid should be slower than a balanced one on an
	// anisotropy-free task.
	cfg.Px, cfg.Py = 128, 1 // pz = 1
	skewed := a.Runtime(60, 60, 60, cfg)
	cfg.Px, cfg.Py = 8, 4 // pz = 4
	balanced := a.Runtime(60, 60, 60, cfg)
	if balanced >= skewed {
		t.Fatalf("balanced grid (%v) not faster than skewed (%v)", balanced, skewed)
	}
}

func TestSolveCacheHits(t *testing.T) {
	a := New(1)
	cfg := defaultConfig()
	_ = a.Runtime(50, 50, 50, cfg)
	before := len(a.cache)
	_ = a.Runtime(50, 50, 50, cfg)
	if len(a.cache) != before {
		t.Fatalf("cache grew on repeat evaluation")
	}
	// Different grid size beyond proxy resolution creates a new entry.
	_ = a.Runtime(10, 10, 10, cfg)
	if len(a.cache) == before {
		t.Fatalf("distinct proxy not cached separately")
	}
}

func TestProxyDims(t *testing.T) {
	a := New(1)
	p1, p2, p3, scale := a.proxyDims(100, 50, 10)
	if p1 > a.ProxyCap || scale < 4.9 {
		t.Fatalf("proxy %d,%d,%d scale %v", p1, p2, p3, scale)
	}
	if p3 < 4 {
		t.Fatalf("proxy floor violated: %d", p3)
	}
	q1, q2, q3, s := a.proxyDims(12, 12, 12)
	if s != 1 || q1 != 12 || q2 != 12 || q3 != 12 {
		t.Fatalf("small grids must not shrink: %d %d %d %v", q1, q2, q3, s)
	}
}

func TestProblemEvaluatesAndConstrains(t *testing.T) {
	a := New(1)
	p := a.Problem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	x := configToVector(defaultConfig())
	y, err := p.Objective([]float64{30, 20, 15}, x)
	if err != nil || len(y) != 1 || y[0] <= 0 {
		t.Fatalf("objective: %v %v", y, err)
	}
	// px·py > P must be infeasible.
	bad := configToVector(defaultConfig())
	bad[0], bad[1] = float64(a.PMax), 2
	if p.Tuning.Feasible(bad) {
		t.Fatalf("oversubscribed process grid accepted")
	}
	// Noise present but bounded.
	y2, _ := p.Objective([]float64{30, 20, 15}, x)
	if y[0] == y2[0] {
		t.Fatalf("no measurement noise")
	}
}

func TestConfigVectorRoundTrip(t *testing.T) {
	a := New(2)
	cfg := Config{
		Px: 4, Py: 2, Coarsen: 1,
		Restrict: mg.Injection, Interp: mg.Weighted,
		Smoother: mg.SSOR, Omega: 1.2,
		PreSweeps: 2, PostSweeps: 0,
		Cycle: mg.WCycle, CoarseSize: 16, Restart: 40,
	}
	got := a.configOf(configToVector(cfg))
	if got != cfg {
		t.Fatalf("round trip: %+v vs %+v", got, cfg)
	}
}
