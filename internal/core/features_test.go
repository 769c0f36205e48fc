package core

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/space"
	"repro/internal/surrogate"
)

func TestBatchEvalsBudgetAccounting(t *testing.T) {
	p := analyticalProblem()
	calls := 0
	inner := p.Objective
	p.Objective = func(task, x []float64) ([]float64, error) {
		calls++
		return inner(task, x)
	}
	res, err := Run(p, [][]float64{{0}}, Options{EpsTot: 10, Seed: 21, BatchEvals: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 5 initial + ceil(5/2)=3 iterations × 2 = 11 total evaluations.
	if got := len(res.Tasks[0].X); got < 10 || got > 12 {
		t.Fatalf("samples = %d, want ≈ 11", got)
	}
	if calls != len(res.Tasks[0].X) {
		t.Fatalf("calls %d != samples %d", calls, len(res.Tasks[0].X))
	}
}

func TestBatchEvalsSpreadOut(t *testing.T) {
	// With BatchEvals=3 on a smooth objective, each iteration's batch must
	// not collapse to (nearly) identical points.
	p := analyticalProblem()
	p.Objective = func(task, x []float64) ([]float64, error) {
		d := x[0] - 0.5
		return []float64{d * d}, nil
	}
	res, err := Run(p, [][]float64{{0}}, Options{EpsTot: 12, Seed: 22, BatchEvals: 3})
	if err != nil {
		t.Fatal(err)
	}
	xs := res.Tasks[0].X
	// Look at the first BO batch (samples 6, 7, 8).
	if len(xs) < 9 {
		t.Fatalf("too few samples: %d", len(xs))
	}
	batch := xs[6:9]
	minDist := math.Inf(1)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			d := math.Abs(batch[i][0] - batch[j][0])
			if d < minDist {
				minDist = d
			}
		}
	}
	if minDist < 1e-6 {
		t.Fatalf("batch collapsed: %v", batch)
	}
}

func TestAcquisitionVariants(t *testing.T) {
	for _, acqName := range []string{"ei", "lcb", "pi"} {
		p := analyticalProblem()
		p.Objective = func(task, x []float64) ([]float64, error) {
			d := x[0] - 0.3
			return []float64{d * d}, nil
		}
		res, err := Run(p, [][]float64{{0}}, Options{EpsTot: 16, Seed: 23, Acquisition: acqName})
		if err != nil {
			t.Fatalf("%s: %v", acqName, err)
		}
		x, y := res.Tasks[0].Best()
		if y[0] > 0.02 {
			t.Errorf("%s: best %v at %v (should approach 0.3)", acqName, y[0], x[0])
		}
	}
}

// An acquisition the engine cannot honour is refused up front: an unknown
// name, and LCB or PI on a multi-objective problem, whose NSGA-II search
// maximizes EI. All three used to run EI silently.
func TestNewEngineRefusesAcquisitionItCannotHonour(t *testing.T) {
	for _, c := range []struct {
		acq string
		p   *Problem
	}{{"ucb", analyticalProblem()}, {"EI", analyticalProblem()}, {"lcb", moProblem()}, {"pi", moProblem()}} {
		if _, err := NewEngine(c.p, [][]float64{{0}}, Options{EpsTot: 4, Acquisition: c.acq}); err == nil || !strings.Contains(err.Error(), c.acq) {
			t.Errorf("acquisition %q on %d objectives: error %v, want one naming it", c.acq, c.p.Outputs.Dim(), err)
		}
	}
	for _, c := range []struct {
		acq string
		p   *Problem
	}{{"", moProblem()}, {"ei", moProblem()}, {"lcb", analyticalProblem()}, {"pi", analyticalProblem()}} {
		if _, err := NewEngine(c.p, [][]float64{{0}}, Options{EpsTot: 4, Acquisition: c.acq}); err != nil {
			t.Errorf("acquisition %q on %d objectives: %v", c.acq, c.p.Outputs.Dim(), err)
		}
	}
}

// Every budget past its ceiling is refused up front, by name, and the ceiling
// itself is accepted. Each reaches the generation goroutine as an allocation
// size or a loop bound; the engine used to take any size and leave the check
// to the service (or, for the fit budget, to the first fit).
func TestNewEngineRefusesBudgetPastCeiling(t *testing.T) {
	for _, c := range []struct {
		option string
		limit  int
		set    func(o *Options, v int)
	}{
		{"num_starts", surrogate.MaxNumStarts, func(o *Options, v int) { o.NumStarts = v }},
		{"model_max_iter", surrogate.MaxFitIter, func(o *Options, v int) { o.ModelMaxIter = v }},
		{"eps_tot", 10_000, func(o *Options, v int) { o.EpsTot = v }},
		{"batch_evals", 1_000, func(o *Options, v int) { o.BatchEvals = v }},
		{"mo_batch", 1_000, func(o *Options, v int) { o.MOBatch = v }},
		{"mo_pop_size", 1_000, func(o *Options, v int) { o.MOPopSize = v }},
		{"mo_generations", 1_000, func(o *Options, v int) { o.MOGenerations = v }},
	} {
		t.Run(c.option, func(t *testing.T) {
			for _, v := range []int{c.limit + 1, 1 << 40} {
				o := Options{EpsTot: 4}
				c.set(&o, v)
				_, err := NewEngine(analyticalProblem(), [][]float64{{0}}, o)
				if err == nil || !strings.Contains(err.Error(), c.option+" ") || !strings.Contains(err.Error(), "ceiling") {
					t.Errorf("%s %d: error %v, want one naming it and its ceiling", c.option, v, err)
				}
			}
			o := Options{EpsTot: 4}
			c.set(&o, c.limit)
			if _, err := NewEngine(analyticalProblem(), [][]float64{{0}}, o); err != nil {
				t.Errorf("%s at its ceiling %d: %v", c.option, c.limit, err)
			}
		})
	}
}

// A task vector of the wrong length or with a non-finite value is refused up
// front, naming the task. The engine used to take any: Run then panicked in
// the objective, and with a performance model the first generation panicked
// building the feature scale, on the generation goroutine, which no caller
// can recover.
func TestNewEngineRefusesMalformedTasks(t *testing.T) {
	for _, task := range [][]float64{{}, {1, 2}, {math.NaN()}} {
		if _, err := NewEngine(analyticalProblem(), [][]float64{{0}, task}, Options{EpsTot: 4}); err == nil || !strings.Contains(err.Error(), "task 1 ") {
			t.Errorf("task %v: error %v, want one naming task 1", task, err)
		}
		if _, err := Run(analyticalProblem(), [][]float64{task}, Options{EpsTot: 4}); err == nil {
			t.Errorf("Run accepted task %v", task)
		}
	}
}

func TestPriorSeedingImprovesColdStart(t *testing.T) {
	p := analyticalProblem()
	p.Objective = func(task, x []float64) ([]float64, error) {
		d := x[0] - 0.712
		return []float64{d * d}, nil
	}
	// Prior: dense observations around the optimum from a "previous run".
	var prior []PriorSample
	for i := 0; i < 10; i++ {
		x := 0.6 + 0.02*float64(i)
		d := x - 0.712
		prior = append(prior, PriorSample{Task: []float64{0}, X: []float64{x}, Y: []float64{d * d}})
	}
	res, err := Run(p, [][]float64{{0}}, Options{EpsTot: 6, Seed: 24, Prior: prior})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tasks[0]
	// Budget: 6 evaluations + 10 prior samples in the dataset.
	if len(tr.X) != 16 {
		t.Fatalf("dataset has %d samples, want 16 (6 new + 10 prior)", len(tr.X))
	}
	_, y := tr.Best()
	if y[0] > 0.01 {
		t.Fatalf("prior-seeded run missed optimum: %v", y[0])
	}
}

func TestPriorValidation(t *testing.T) {
	p := analyticalProblem()
	_, err := Run(p, [][]float64{{0}}, Options{EpsTot: 4, Seed: 25, Prior: []PriorSample{
		{Task: []float64{0}, X: []float64{0.1, 0.9}, Y: []float64{1}}, // wrong dim
	}})
	if err == nil {
		t.Fatalf("mismatched prior dimension accepted")
	}
	_, err = Run(p, [][]float64{{0}}, Options{EpsTot: 4, Seed: 25, Prior: []PriorSample{
		{Task: []float64{0}, X: []float64{0.1}, Y: []float64{math.NaN()}},
	}})
	if err == nil {
		t.Fatalf("NaN prior output accepted")
	}
	// A non-finite configuration used to be merged only after the initial
	// batch was paid for, then failed the first modeling phase naming a
	// flattened sample index. It is refused up front, by prior and parameter.
	calls := 0
	inner := p.Objective
	p.Objective = func(task, x []float64) ([]float64, error) {
		calls++
		return inner(task, x)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		_, err = Run(p, [][]float64{{0}}, Options{EpsTot: 4, Seed: 25, Prior: []PriorSample{
			{Task: []float64{0}, X: []float64{0.1}, Y: []float64{1}},
			{Task: []float64{0}, X: []float64{bad}, Y: []float64{1}},
		}})
		if err == nil || !strings.Contains(err.Error(), "Prior[1]") || !strings.Contains(err.Error(), `"x"`) {
			t.Fatalf("prior configuration %v: error %v, want one naming Prior[1] and parameter x", bad, err)
		}
		if calls != 0 {
			t.Fatalf("prior configuration %v: refused after %d objective evaluations, want 0", bad, calls)
		}
	}
	// Priors for unknown tasks are silently ignored.
	res, err := Run(p, [][]float64{{0}}, Options{EpsTot: 4, Seed: 25, Prior: []PriorSample{
		{Task: []float64{99}, X: []float64{0.1}, Y: []float64{1}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks[0].X) != 4 {
		t.Fatalf("unknown-task prior affected dataset: %d samples", len(res.Tasks[0].X))
	}
}

func TestEqualVec(t *testing.T) {
	if !equalVec([]float64{1, 2}, []float64{1, 2}) {
		t.Fatalf("equal vectors reported unequal")
	}
	if equalVec([]float64{1}, []float64{1, 2}) || equalVec([]float64{1, 2}, []float64{1, 3}) {
		t.Fatalf("unequal vectors reported equal")
	}
}

// The candidate path NSGA-II scores through — each objective's acqSearch,
// with nothing to avoid, over a batch spanning a full group and a partial
// one — allocates nothing on a constrained two-objective problem; the
// multi-objective counterpart of TestAcqScoreZeroAllocs.
func TestCandidatePointZeroAllocs(t *testing.T) {
	p := &Problem{
		Name:    "mo-constrained",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x", 0, 1), space.NewInteger("k", 1, 8)),
		Outputs: space.NewOutputSpace("f1", "f2"),
	}
	x, k := p.Tuning.IndexOf("x"), p.Tuning.IndexOf("k")
	p.Tuning.AddConstraint("x·k ≤ 4", func(v []float64) bool { return v[x]*v[k] <= 4 })
	eng, err := NewEngine(p, [][]float64{{0.5}}, Options{EpsTot: 12, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	suggs, err := eng.SuggestAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range suggs {
		if err := eng.Observe(sg.ID, []float64{sg.X[0] + sg.X[1], 9 - sg.X[0]*sg.X[1]}); err != nil {
			t.Fatal(err)
		}
	}
	// The init batch has committed and a synchronous engine starts nothing on
	// its own, so the state is this goroutine's.
	st := eng.st
	models, _, fs, err := st.refitPhase(2, st.minSamples())
	if err != nil {
		t.Fatal(err)
	}
	cand := st.newCandidate(0, fs)
	feasible, infeasible := []float64{0.4, 0.5}, []float64{0.99, 0.99}
	if _, ok := cand.point(feasible); !ok {
		t.Fatal("feasible candidate rejected")
	}
	if _, ok := cand.point(infeasible); ok {
		t.Fatal("infeasible candidate accepted")
	}
	us := [][]float64{feasible, infeasible, {0.2, 0.1}, {0.7, 0.3}, {0.1, 0.9}, {0.95, 0.9}}
	out := make([]float64, len(us))
	for s, model := range models {
		ev := st.newAcqSearch(0, model, model.NewWorkspace(), fs, 1, nil)
		ev.score(us, out)
		if !math.IsInf(out[1], 1) || math.IsInf(out[0], 0) {
			t.Fatalf("objective %d: scores %v: want candidate 1 infeasible (+Inf) and candidate 0 scored", s, out)
		}
		allocs := testing.AllocsPerRun(100, func() { ev.score(us, out) })
		if allocs != 0 {
			t.Fatalf("objective %d: candidate path allocates %v times per batch, want 0", s, allocs)
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	p := analyticalProblem()
	evals := 0
	inner := p.Objective
	p.Objective = func(task, x []float64) ([]float64, error) {
		evals++
		return inner(task, x)
	}
	lcm, err := surrogate.New("")
	if err != nil {
		t.Fatal(err)
	}
	var fits atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the BO loop: only initial sampling happens
	res, err := RunContext(ctx, p, [][]float64{{0}}, Options{
		EpsTot: 40, Seed: 30, fitterOverride: countingFitter{Fitter: lcm, fits: &fits},
	})
	if err == nil {
		t.Fatalf("cancelled run returned no error")
	}
	if res == nil || len(res.Tasks[0].X) != 20 {
		t.Fatalf("partial result missing initial samples: %+v", res)
	}
	if evals != 20 {
		t.Fatalf("evals = %d, want just the 20 initial samples", evals)
	}
	// The batch driver's engine is lazy: committing the init batch starts no
	// generation, so a run cancelled there never pays for a fit.
	if n := fits.Load(); n != 0 {
		t.Fatalf("cancelled run performed %d surrogate fits, want 0", n)
	}
}
