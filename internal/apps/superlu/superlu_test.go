package superlu

import (
	"testing"

	"repro/internal/sparse"
)

func TestMatrixNamesOrder(t *testing.T) {
	names := MatrixNames()
	if len(names) != 8 || names[0] != "Si2" || names[7] != "SiO" {
		t.Fatalf("names = %v", names)
	}
}

func TestFactorCostBasicShape(t *testing.T) {
	a := New(8)
	cfg := a.DefaultConfig()
	tm, mem := a.FactorCost(0, cfg)
	if tm <= 0 || mem <= 0 {
		t.Fatalf("nonpositive cost: %v %v", tm, mem)
	}
	// A much bigger matrix must cost more at the same configuration.
	tBig, memBig := a.FactorCost(7, cfg)
	if tBig <= tm || memBig <= mem {
		t.Fatalf("SiO (%v,%v) not more expensive than Si2 (%v,%v)", tBig, memBig, tm, mem)
	}
}

func TestColPermMatters(t *testing.T) {
	a := New(8)
	// Flop-dominated regime (modest process count): the ordering's fill
	// reduction must pay off in both time and memory. (At very large p the
	// landscape can legitimately reward granularity instead — that is the
	// kind of surprise autotuning exists for.)
	cfg := a.DefaultConfig()
	cfg.P, cfg.Pr = 16, 4
	cfg.ColPerm = sparse.MinDegree
	tMD, memMD := a.FactorCost(5, cfg)
	cfg.ColPerm = sparse.RandomOrder
	tRand, memRand := a.FactorCost(5, cfg)
	if tMD >= tRand {
		t.Fatalf("MMD (%v) not faster than RANDOM (%v)", tMD, tRand)
	}
	if memMD >= memRand {
		t.Fatalf("MMD memory (%v) not below RANDOM (%v)", memMD, memRand)
	}
}

func TestTimeMemoryTradeoff(t *testing.T) {
	a := New(8)
	// Increasing LOOK should reduce (or hold) time but increase memory —
	// the structural source of the Fig. 7 Pareto front.
	lo := a.DefaultConfig()
	lo.Look = 1
	hi := lo
	hi.Look = 25
	tLo, memLo := a.FactorCost(0, lo)
	tHi, memHi := a.FactorCost(0, hi)
	if tHi > tLo {
		t.Fatalf("more look-ahead slowed factorization: %v vs %v", tHi, tLo)
	}
	if memHi <= memLo {
		t.Fatalf("more look-ahead did not cost memory: %v vs %v", memHi, memLo)
	}
	// Large NSUP costs buffer memory.
	small := a.DefaultConfig()
	small.NSup = 16
	big := small
	big.NSup = 512
	_, memSmall := a.FactorCost(0, small)
	_, memBig := a.FactorCost(0, big)
	if memBig <= memSmall {
		t.Fatalf("NSUP has no memory cost: %v vs %v", memBig, memSmall)
	}
}

func TestNSupInteriorOptimum(t *testing.T) {
	a := New(8)
	cfg := a.DefaultConfig()
	timeAt := func(nsup int) float64 {
		c := cfg
		c.NSup = nsup
		tm, _ := a.FactorCost(6, c)
		return tm
	}
	tiny, mid := timeAt(8), timeAt(128)
	if mid >= tiny {
		t.Fatalf("mid NSUP (%v) not faster than tiny (%v)", mid, tiny)
	}
}

func TestDegenerateConfigsClamped(t *testing.T) {
	a := New(1)
	tm, mem := a.FactorCost(0, Config{ColPerm: sparse.Natural, Look: 0, P: 0, Pr: 99999, NSup: 0, NRel: -5})
	if tm <= 0 || mem <= 0 {
		t.Fatalf("degenerate config produced %v %v", tm, mem)
	}
	// Out-of-range matrix index clamps.
	tm2, _ := a.FactorCost(-3, a.DefaultConfig())
	if tm2 <= 0 {
		t.Fatalf("clamped index produced %v", tm2)
	}
}

func TestProblemsEvaluate(t *testing.T) {
	a := New(8)
	p := a.Problem()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	x := ConfigToVector(a.DefaultConfig())
	y, err := p.Objective([]float64{0}, x)
	if err != nil || len(y) != 1 || y[0] <= 0 {
		t.Fatalf("single-objective: %v %v", y, err)
	}
	mo := a.ProblemMO()
	if err := mo.Validate(); err != nil {
		t.Fatal(err)
	}
	y2, err := mo.Objective([]float64{0}, x)
	if err != nil || len(y2) != 2 || y2[1] <= 0 {
		t.Fatalf("multi-objective: %v %v", y2, err)
	}
	// Constraint pr <= p present.
	if mo.Tuning.Feasible([]float64{0, 5, 4, 8, 64, 16}) {
		t.Fatalf("pr > p accepted")
	}
}

func TestConfigVectorRoundTrip(t *testing.T) {
	cfg := Config{ColPerm: sparse.NestedDissection, Look: 7, P: 64, Pr: 8, NSup: 96, NRel: 12}
	if got := ConfigFromVector(ConfigToVector(cfg)); got != cfg {
		t.Fatalf("round trip: %+v vs %+v", got, cfg)
	}
}

func TestAnalysisCaching(t *testing.T) {
	a := New(4)
	cfg := a.DefaultConfig()
	// First call computes, second must hit the cache and agree exactly
	// (noise-free path).
	t1, m1 := a.FactorCost(1, cfg)
	t2, m2 := a.FactorCost(1, cfg)
	if t1 != t2 || m1 != m2 {
		t.Fatalf("cached cost differs: (%v,%v) vs (%v,%v)", t1, m1, t2, m2)
	}
	if len(a.analyses) == 0 {
		t.Fatalf("analysis cache empty")
	}
}
