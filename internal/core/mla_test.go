package core

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/acq"
	"repro/internal/apps/analytical/eq11"
	"repro/internal/space"
)

// paperObjective is Eq. (11): the paper's analytical benchmark, shared from
// the leaf eq11 package (the full analytical app registers itself with the
// workload registry, which imports core — a cycle from here).
var paperObjective = eq11.Objective

func analyticalProblem() *Problem {
	return &Problem{
		Name:    "analytical",
		Tasks:   space.MustNew(space.NewReal("t", 0, 10)),
		Tuning:  space.MustNew(space.NewReal("x", 0, 1)),
		Outputs: space.NewOutputSpace("y"),
		Objective: func(task, x []float64) ([]float64, error) {
			return []float64{paperObjective(task[0], x[0])}, nil
		},
	}
}

// trueMin brute-forces the global minimum of Eq. (11).
func trueMin(t float64) float64 {
	_, y := eq11.TrueMin(t)
	return y
}

func TestProblemValidate(t *testing.T) {
	p := analyticalProblem()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	bad := *p
	bad.Objective = nil
	if err := bad.Validate(); err == nil {
		t.Fatalf("missing objective accepted")
	}
	bad2 := *p
	bad2.Outputs = nil
	if err := bad2.Validate(); err == nil {
		t.Fatalf("missing outputs accepted")
	}
	bad3 := *p
	bad3.Model = &PerfModel{}
	if err := bad3.Validate(); err == nil {
		t.Fatalf("broken model accepted")
	}
}

func TestRunRejectsEmptyTasks(t *testing.T) {
	if _, err := Run(analyticalProblem(), nil, Options{EpsTot: 4}); err == nil {
		t.Fatalf("expected error for no tasks")
	}
}

// TestMLASingleTaskFindsGoodMinimum: the median over seeds 1–10 of a
// 20-evaluation run's gap to the true minimum is within 0.15. One seed's
// gap is a draw (about 70 % of seeds land within 0.15, whatever the stream
// derivation), so the check is on the tuner, not on one seed's streams.
func TestMLASingleTaskFindsGoodMinimum(t *testing.T) {
	p := analyticalProblem()
	truth := trueMin(0)
	var gaps []float64
	for seed := int64(1); seed <= 10; seed++ {
		res, err := Run(p, [][]float64{{0}}, Options{EpsTot: 20, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tasks) != 1 {
			t.Fatalf("got %d task results", len(res.Tasks))
		}
		tr := res.Tasks[0]
		if len(tr.X) != 20 || len(tr.Y) != 20 {
			t.Fatalf("expected 20 samples, got %d", len(tr.X))
		}
		if res.Stats.NumEvals != 20 {
			t.Fatalf("NumEvals = %d", res.Stats.NumEvals)
		}
		if res.Stats.Total <= 0 || res.Stats.Modeling <= 0 || res.Stats.Search <= 0 {
			t.Fatalf("phase stats not recorded: %+v", res.Stats)
		}
		_, bestY := tr.Best()
		gaps = append(gaps, bestY[0]-truth)
	}
	sort.Float64s(gaps)
	if med := (gaps[4] + gaps[5]) / 2; med > 0.15 {
		t.Fatalf("median gap to the true minimum %v over seeds 1-10 (gaps %v)", med, gaps)
	}
}

func TestMLAMultitaskCoversAllTasks(t *testing.T) {
	p := analyticalProblem()
	tasks := [][]float64{{0}, {1}, {2}, {3}}
	res, err := Run(p, tasks, Options{EpsTot: 14, Seed: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Tasks {
		if len(tr.X) != 14 {
			t.Fatalf("task %d has %d samples", i, len(tr.X))
		}
		// Eq. (11) oscillates with frequency up to (t+2)^5, so exact optima
		// are unreachable at this budget for large t; require that every
		// task found a dip below the y≈1 plateau, and that the easy task
		// t=0 got near its true minimum.
		_, bestY := tr.Best()
		if bestY[0] >= 1.02 {
			t.Errorf("task %d: best %v did not beat the plateau", i, bestY[0])
		}
	}
	// The easy task t=0 should get near its true minimum for at least one
	// of a few seeds (individual seeds are luck-sensitive at ε_tot=14 on a
	// function with ~32 oscillations).
	truth := trueMin(tasks[0][0])
	closest := math.Inf(1)
	for seed := int64(2); seed < 5; seed++ {
		r, err := Run(p, tasks[:1], Options{EpsTot: 14, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		_, by := r.Tasks[0].Best()
		closest = math.Min(closest, by[0])
	}
	if closest > truth+0.25 {
		t.Errorf("task 0: best across seeds %v vs true %v", closest, truth)
	}
}

// MLA with a shared model should beat pure random sampling on the same
// budget (statistically; we use a fixed seed and a margin).
func TestMLABeatsInitialSampling(t *testing.T) {
	p := analyticalProblem()
	res, err := Run(p, [][]float64{{4}}, Options{EpsTot: 24, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tasks[0]
	// Best among the BO-chosen half should improve on (or match) the best
	// of the initial random half.
	initBest := math.Inf(1)
	for _, y := range tr.Y[:12] {
		initBest = math.Min(initBest, y[0])
	}
	_, bestY := tr.Best()
	if bestY[0] > initBest {
		t.Fatalf("BO half (%v) worse than initial sampling best (%v)", bestY[0], initBest)
	}
}

func TestBestTraceMonotone(t *testing.T) {
	p := analyticalProblem()
	res, err := Run(p, [][]float64{{1}}, Options{EpsTot: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	trace := res.Tasks[0].BestTrace()
	for j := 1; j < len(trace); j++ {
		if trace[j] > trace[j-1] {
			t.Fatalf("trace not monotone at %d: %v", j, trace)
		}
	}
	if trace[len(trace)-1] != res.Tasks[0].Y[res.Tasks[0].BestIdx][0] {
		t.Fatalf("trace end != best")
	}
}

// Engine.Result is valid mid-study, so a task can have no observations yet:
// Best and BestTrace must answer "nothing" instead of indexing X[0]/Y[0].
func TestBestOnEmptyTask(t *testing.T) {
	eng, err := NewEngine(analyticalProblem(), [][]float64{{0}, {1}}, Options{EpsTot: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range eng.Result().Tasks {
		if x, y := tr.Best(); x != nil || y != nil {
			t.Fatalf("task %d: Best() on an empty task = (%v, %v), want nil, nil", i, x, y)
		}
		if trace := tr.BestTrace(); len(trace) != 0 {
			t.Fatalf("task %d: BestTrace() on an empty task = %v", i, trace)
		}
	}
}

func TestMLAObjectiveErrorRetry(t *testing.T) {
	p := analyticalProblem()
	calls := 0
	inner := p.Objective
	p.Objective = func(task, x []float64) ([]float64, error) {
		calls++
		if calls%5 == 0 { // periodic failures
			return nil, errors.New("injected failure")
		}
		return inner(task, x)
	}
	res, err := Run(p, [][]float64{{0}}, Options{EpsTot: 8, Seed: 5})
	if err != nil {
		t.Fatalf("MLA did not survive transient failures: %v", err)
	}
	if len(res.Tasks[0].X) != 8 {
		t.Fatalf("expected 8 samples, got %d", len(res.Tasks[0].X))
	}
}

func TestMLAObjectivePersistentFailure(t *testing.T) {
	p := analyticalProblem()
	p.Objective = func(task, x []float64) ([]float64, error) {
		return nil, errors.New("always broken")
	}
	if _, err := Run(p, [][]float64{{0}}, Options{EpsTot: 4, Seed: 6}); err == nil {
		t.Fatalf("expected failure to propagate")
	}
}

func TestMLANonFiniteOutputRejected(t *testing.T) {
	p := analyticalProblem()
	p.Objective = func(task, x []float64) ([]float64, error) {
		return []float64{math.NaN()}, nil
	}
	if _, err := Run(p, [][]float64{{0}}, Options{EpsTot: 4, Seed: 7}); err == nil {
		t.Fatalf("NaN outputs must be rejected")
	}
}

// TestMinOfRepeats: a MinOfRepeats problem runs its objective r times per
// evaluation and keeps the componentwise minimum, and a non-finite output on
// any repeat — not only the first — fails the evaluation. A run over it
// records the minima and counts one evaluation per configuration.
func TestMinOfRepeats(t *testing.T) {
	p := analyticalProblem()
	p.Outputs = space.NewOutputSpace("a", "b")
	var outs [][]float64 // the objective's outputs, call by call
	calls := 0
	p.Objective = func(task, x []float64) ([]float64, error) {
		calls++
		return append([]float64(nil), outs[calls-1]...), nil
	}
	if MinOfRepeats(p, 1) != p {
		t.Fatal("MinOfRepeats(p, 1) wraps p")
	}
	q := MinOfRepeats(p, 3)
	outs = [][]float64{{4, 1}, {2, 5}, {3, 0.5}}
	y, err := q.Evaluate([]float64{0}, []float64{0.5})
	if err != nil || calls != 3 || y[0] != 2 || y[1] != 0.5 {
		t.Fatalf("Evaluate = %v, %v after %d objective calls, want [2 0.5] after 3", y, err, calls)
	}
	for bad := range 3 {
		outs, calls = [][]float64{{1, 1}, {1, 1}, {1, 1}}, 0
		outs[bad] = []float64{1, math.NaN()}
		if _, err := q.Evaluate([]float64{0}, []float64{0.5}); err == nil {
			t.Fatalf("a NaN on repeat %d was accepted", bad)
		}
	}

	p = analyticalProblem()
	calls = 0
	p.Objective = func(task, x []float64) ([]float64, error) {
		calls++
		// Alternate high/low: every recorded value is the low one.
		if calls%2 == 1 {
			return []float64{10}, nil
		}
		return []float64{5}, nil
	}
	res, err := Run(MinOfRepeats(p, 2), [][]float64{{0}}, Options{EpsTot: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range res.Tasks[0].Y {
		if y[0] != 5 {
			t.Fatalf("repeat-min not applied: %v", y)
		}
	}
	if calls != 8 || res.Stats.NumEvals != 4 {
		t.Fatalf("%d objective calls, NumEvals = %d; want 8 calls (4 evaluations × 2 repeats), NumEvals 4", calls, res.Stats.NumEvals)
	}
}

func TestMLAWithConstraints(t *testing.T) {
	p := analyticalProblem()
	p.Tuning = space.MustNew(space.NewReal("x", 0, 1), space.NewReal("z", 0, 1))
	x, z := p.Tuning.IndexOf("x"), p.Tuning.IndexOf("z")
	p.Tuning.AddConstraint("z<=x", func(v []float64) bool { return v[z] <= v[x] })
	p.Objective = func(task, x []float64) ([]float64, error) {
		return []float64{paperObjective(task[0], x[0]) + x[1]}, nil
	}
	res, err := Run(p, [][]float64{{0}}, Options{EpsTot: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range res.Tasks[0].X {
		if x[1] > x[0] {
			t.Fatalf("constraint violated: %v", x)
		}
	}
}

func TestMLALogYTransform(t *testing.T) {
	// Objective spans orders of magnitude; LogY must not break anything and
	// samples must still be found.
	p := analyticalProblem()
	p.Objective = func(task, x []float64) ([]float64, error) {
		return []float64{math.Exp(5 * (paperObjective(task[0], x[0])))}, nil
	}
	res, err := Run(p, [][]float64{{0}}, Options{EpsTot: 12, Seed: 10, LogY: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks[0].X) != 12 {
		t.Fatalf("sample count %d", len(res.Tasks[0].X))
	}
}

// Performance model support: with a (noisy) model equal to the objective,
// tuning should not get worse — mirrors Fig. 4's setup.
func TestMLAWithPerformanceModel(t *testing.T) {
	p := analyticalProblem()
	p.Model = &PerfModel{
		Dim: 1,
		Eval: func(task, x, coeffs []float64) []float64 {
			return []float64{paperObjective(task[0], x[0])}
		},
	}
	res, err := Run(p, [][]float64{{2}}, Options{EpsTot: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// With the exact objective as a feature, the surrogate should steer the
	// search below the plateau even on this highly oscillatory task.
	_, bestY := res.Tasks[0].Best()
	if bestY[0] >= 1.0 {
		t.Fatalf("with perfect model: best %v did not beat plateau", bestY[0])
	}
}

func TestDefaultFitCoeffsRecoversScale(t *testing.T) {
	// Model: ỹ = c·x; data generated with c = 4; initial guess c = 1.
	m := &PerfModel{
		Dim:    1,
		Coeffs: []float64{1},
		Eval: func(task, x, coeffs []float64) []float64 {
			return []float64{coeffs[0] * x[0]}
		},
	}
	var tasks, xs [][]float64
	var ys []float64
	for i := 1; i <= 20; i++ {
		x := float64(i) / 20
		tasks = append(tasks, []float64{0})
		xs = append(xs, []float64{x})
		ys = append(ys, 4*x)
	}
	got := defaultFitCoeffs(m, tasks, xs, ys, m.Coeffs, newTestRand())
	if math.Abs(got[0]-4) > 0.2 {
		t.Fatalf("fitted coefficient %v, want ≈ 4", got[0])
	}
}

func TestMLAMultiObjectiveParetoFront(t *testing.T) {
	// Two conflicting objectives: y1 = x, y2 = 1-x (both minimized) — the
	// whole segment is Pareto-optimal; check front extraction and dominance.
	p := &Problem{
		Name:    "mo",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x", 0, 1)),
		Outputs: space.NewOutputSpace("f1", "f2"),
		Objective: func(task, x []float64) ([]float64, error) {
			return []float64{x[0], 1 - x[0]}, nil
		},
	}
	res, err := Run(p, [][]float64{{0}}, Options{EpsTot: 12, Seed: 12, MOBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tasks[0]
	if len(tr.X) < 12 {
		t.Fatalf("expected ≥ 12 samples, got %d", len(tr.X))
	}
	front := tr.ParetoFront()
	if len(front) == 0 {
		t.Fatalf("empty Pareto front")
	}
	for _, i := range front {
		for j := range tr.Y {
			if j != i && acq.Dominates(tr.Y[j], tr.Y[i]) {
				t.Fatalf("front point %d dominated by %d", i, j)
			}
		}
	}
}

func TestMLAMultiObjectiveTradeoffQuality(t *testing.T) {
	// Convex tradeoff y1 = x², y2 = (1-x)²: the multi-objective tuner should
	// discover points near both single-objective optima.
	p := &Problem{
		Name:    "mo2",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x", 0, 1)),
		Outputs: space.NewOutputSpace("f1", "f2"),
		Objective: func(task, x []float64) ([]float64, error) {
			return []float64{x[0] * x[0], (1 - x[0]) * (1 - x[0])}, nil
		},
	}
	res, err := Run(p, [][]float64{{0}}, Options{EpsTot: 20, Seed: 13, MOBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tasks[0]
	minF1, minF2 := math.Inf(1), math.Inf(1)
	for _, y := range tr.Y {
		minF1 = math.Min(minF1, y[0])
		minF2 = math.Min(minF2, y[1])
	}
	if minF1 > 0.05 || minF2 > 0.05 {
		t.Fatalf("front does not approach extremes: minF1=%v minF2=%v", minF1, minF2)
	}
}

func TestPhaseStatsAdd(t *testing.T) {
	a := PhaseStats{Objective: 1, Modeling: 2, Search: 3, ModelUpdate: 4, Total: 10, NumEvals: 5}
	b := a
	a.Add(b)
	if a.Objective != 2 || a.Total != 20 || a.NumEvals != 10 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(99)) }
