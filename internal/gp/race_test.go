package gp

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/opt"
)

// soloStarts runs every start of the fit (data, opts) alone to MaxIter — the
// fit as it was before starts were raced — and returns each start's result
// and the index the old selection rule picks (highest finite log likelihood,
// the lower index on a tie; -1 if none is finite).
func soloStarts(t *testing.T, data *Dataset, opts FitOptions) (solo []opt.Result, winner int) {
	t.Helper()
	opts.defaults(data.NumTasks())
	layout := hyperLayout{q: opts.Q, dim: data.Dim, tasks: data.NumTasks()}
	flatX, taskOf, yn := flatten(data)
	eng := newLCMEngine(newPairCache(flatX, data.Dim), layout, taskOf, yn, 1)
	winner = -1
	for s := 0; s < opts.NumStarts; s++ {
		res := opt.LBFGS(combined(eng), startPoint(layout, opts.Seed, s, nil), opt.LBFGSParams{MaxIter: opts.MaxIter})
		solo = append(solo, res)
		if !failedStart(res.F) && (winner < 0 || res.F < solo[winner].F) {
			winner = s
		}
	}
	return solo, winner
}

// combined is the engine as a GradObjective, value and gradient at every
// point the minimizer evaluates, as it was before the minimizer asked for
// the gradient only at accepted points: what a fit's split evaluations must
// reproduce bit for bit.
func combined(e *lcmEngine) opt.GradObjective {
	return func(theta, grad []float64) float64 {
		o := e.objective()
		f := o.Value(theta)
		o.Grad(theta, grad)
		return f
	}
}

// isStart reports whether m carries, bit for bit, the hyperparameters and
// log likelihood start res ended on.
func isStart(m *LCM, res opt.Result) bool {
	want := thetaToModel(res.X, hyperLayout{q: m.Q, dim: m.Dim, tasks: m.NumTasks})
	same := math.Float64bits(m.LogLik) == math.Float64bits(-res.F) && sameVecBits(m.D, want.D)
	for q := 0; q < m.Q; q++ {
		same = same && sameVecBits(m.Ls[q], want.Ls[q]) && sameVecBits(m.A[q], want.A[q]) && sameVecBits(m.B[q], want.B[q])
	}
	return same
}

func sameVecBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// survivorOf returns which start's solo run m is, failing the test if none.
func survivorOf(t *testing.T, m *LCM, solo []opt.Result) int {
	t.Helper()
	for s, res := range solo {
		if isStart(m, res) {
			return s
		}
	}
	t.Fatalf("the fitted model (log likelihood %v) is no start's solo run: racing changed a survivor's trajectory", m.LogLik)
	return -1
}

// recsysN54 is the dataset of one modeling phase of a default recsys tuning
// run (δ = 3, 18 evaluations a task, performance-model features included)
// and the seed that phase fitted with — the regime the rungs were chosen on:
// un-raced, every one of its four starts runs to the iteration cap.
func recsysN54(t *testing.T) (*Dataset, int64) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "recsys_n54.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Seed int64
		Data *Dataset
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Data.Validate(); err != nil || rec.Data.TotalSamples() != 54 {
		t.Fatalf("recorded dataset: %d samples, %v", rec.Data.TotalSamples(), err)
	}
	return rec.Data, rec.Seed
}

// TestRaceStartsRounds drives raceStarts with one-dimensional objectives
// whose order is known, recording every round: who is advanced how far for
// each shape of fit the rungs can meet, who wins a tie, where a failed start
// ranks, and what is left when every start fails.
func TestRaceStartsRounds(t *testing.T) {
	// bowl(c, floor) has its minimum floor at c; the slow ones (narrow step
	// from x0 = 0) are still far from it at iteration 10.
	bowl := func(c, floor float64) opt.GradObjective {
		return func(x, g []float64) float64 {
			d := x[0] - c
			g[0] = 4 * d * d * d
			return d*d*d*d + floor
		}
	}
	fails := func(v float64) opt.GradObjective {
		return func(x, g []float64) float64 { g[0] = 1; return v }
	}
	type round struct {
		alive []int
		until int
	}
	for _, c := range []struct {
		name    string
		objs    []opt.GradObjective
		maxIter int
		rounds  []round
		best    int
	}{
		{"4 x 100: both rungs eliminate",
			[]opt.GradObjective{bowl(3, 2), bowl(3, 0), bowl(3, 3), bowl(3, 1)}, 100,
			[]round{{[]int{0, 1, 2, 3}, 10}, {[]int{1, 3}, 40}, {[]int{1}, 100}}, 1},
		{"a tie goes to the lower start index at both rungs",
			[]opt.GradObjective{bowl(3, 1), bowl(3, 0), bowl(3, 0), bowl(3, 0)}, 100,
			[]round{{[]int{0, 1, 2, 3}, 10}, {[]int{1, 2}, 40}, {[]int{1}, 100}}, 1},
		{"one start never meets a rung",
			[]opt.GradObjective{bowl(3, 0)}, 100,
			[]round{{[]int{0}, 100}}, 0},
		{"2 x 15 never loses a start",
			[]opt.GradObjective{bowl(3, 1), bowl(3, 0)}, 15,
			[]round{{[]int{0, 1}, 15}}, 1},
		{"2 x 100 meets the second rung only",
			[]opt.GradObjective{bowl(3, 1), bowl(3, 0)}, 100,
			[]round{{[]int{0, 1}, 40}, {[]int{1}, 100}}, 1},
		{"3 x 40: the second rung is the cap, so only the first eliminates",
			[]opt.GradObjective{bowl(3, 1), bowl(3, 2), bowl(3, 0)}, 40,
			[]round{{[]int{0, 1, 2}, 10}, {[]int{0, 2}, 40}}, 2},
		{"a cap of 10 is one round",
			[]opt.GradObjective{bowl(3, 1), bowl(3, 0), bowl(3, 2)}, 10,
			[]round{{[]int{0, 1, 2}, 10}}, 1},
		{"+Inf and NaN rank last, by index among themselves",
			[]opt.GradObjective{fails(math.Inf(1)), fails(math.NaN()), bowl(3, 5)}, 100,
			[]round{{[]int{0, 1, 2}, 10}, {[]int{0, 2}, 40}, {[]int{2}, 100}}, 2},
		{"-Inf is a failure too, not a winner",
			[]opt.GradObjective{fails(math.Inf(-1)), bowl(3, 5), bowl(3, 6), bowl(3, 7)}, 100,
			[]round{{[]int{0, 1, 2, 3}, 10}, {[]int{1, 2}, 40}, {[]int{1}, 100}}, 1},
		{"every start failed",
			[]opt.GradObjective{fails(math.Inf(1)), fails(math.NaN()), fails(math.Inf(1))}, 100,
			[]round{{[]int{0, 1, 2}, 10}, {[]int{0, 1}, 40}, {[]int{0}, 100}}, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			runs := make([]*opt.LBFGSRun, len(c.objs))
			for s := range runs {
				runs[s] = opt.NewLBFGSRun([]float64{0})
			}
			var got []round
			best := raceStarts(runs, c.maxIter, func(alive []int, until int) {
				got = append(got, round{append([]int(nil), alive...), until})
				for _, s := range alive {
					runs[s].Advance(opt.Replayed(c.objs[s], 1), until)
				}
			})
			if best != c.best {
				t.Errorf("winner %d, want %d", best, c.best)
			}
			if len(got) != len(c.rounds) {
				t.Fatalf("rounds %v, want %v", got, c.rounds)
			}
			for i := range got {
				if got[i].until != c.rounds[i].until || len(got[i].alive) != len(c.rounds[i].alive) {
					t.Fatalf("rounds %v, want %v", got, c.rounds)
				}
				for j := range got[i].alive {
					if got[i].alive[j] != c.rounds[i].alive[j] {
						t.Fatalf("rounds %v, want %v", got, c.rounds)
					}
				}
			}
		})
	}
}

// TestFitLCMSurvivorIsItsSoloRun: racing decides who continues and nothing
// else. The fitted hyperparameters and log likelihood are, bit for bit, what
// the surviving start reaches run alone to MaxIter; where the start the
// un-raced fit would have picked survives both rungs, that is the un-raced
// fit's model. Both outcomes are pinned on a dataset each, next to the fit
// shapes that cannot lose their winner. Which start wins follows the starts'
// rng.Start streams: a change to them re-records the pinned starts, and the
// eliminated case takes the first synthetic seed (1, 2, …) that still
// eliminates its winner (seed 3 since the streams moved to internal/rng,
// seed 4 since the default cap became 50: at 50, seed 3's winner survives).
func TestFitLCMSurvivorIsItsSoloRun(t *testing.T) {
	recsys, recsysSeed := recsysN54(t)
	for _, c := range []struct {
		name             string
		data             *Dataset
		opts             FitOptions
		winner, survivor int
	}{
		{"the un-raced winner survives", syntheticDataset(rand.New(rand.NewSource(2)), 3, 10, 2, 0.05), FitOptions{Seed: 2}, 3, 3},
		{"the un-raced winner is eliminated", syntheticDataset(rand.New(rand.NewSource(4)), 3, 10, 2, 0.05), FitOptions{Seed: 4}, 1, 0},
		{"one start", syntheticDataset(rand.New(rand.NewSource(3)), 3, 10, 2, 0.05), FitOptions{Seed: 3, NumStarts: 1}, 0, 0},
		{"2 x 15, the warm-history shape", syntheticDataset(rand.New(rand.NewSource(4)), 3, 10, 2, 0.05), FitOptions{Seed: 4, NumStarts: 2, MaxIter: 15}, -1, -1},
		{"2 x 25, the experiments' cap", syntheticDataset(rand.New(rand.NewSource(5)), 3, 10, 2, 0.05), FitOptions{Seed: 5, NumStarts: 2, MaxIter: 25}, -1, -1},
		{"three starts", syntheticDataset(rand.New(rand.NewSource(6)), 3, 10, 2, 0.05), FitOptions{Seed: 6, NumStarts: 3}, -2, -2},
		{"recorded recsys phase, n = 54", recsys, FitOptions{Seed: recsysSeed}, -2, -2},
	} {
		t.Run(c.name, func(t *testing.T) {
			solo, winner := soloStarts(t, c.data, c.opts)
			m, err := FitLCM(c.data, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			survivor := survivorOf(t, m, solo)
			switch {
			case c.winner == -1: // a shape that never loses a start: the un-raced model, whoever wins
				if survivor != winner {
					t.Errorf("start %d fitted the model, the un-raced fit picks start %d", survivor, winner)
				}
			case c.winner >= 0:
				if winner != c.winner || survivor != c.survivor {
					t.Errorf("un-raced winner %d, survivor %d; pinned %d and %d", winner, survivor, c.winner, c.survivor)
				}
			}
		})
	}
}

// TestFitLCMLikelihoodRunResumesBitwise is opt's resume contract on the
// objective it exists for: a start on the recorded recsys likelihood taken
// to 10, then 40, then 100 iterations, its gradient asked for only at
// accepted points, lands on the bits of one uninterrupted minimization that
// computed the gradient at every point it evaluated.
func TestFitLCMLikelihoodRunResumesBitwise(t *testing.T) {
	data, seed := recsysN54(t)
	var opts FitOptions
	opts.defaults(data.NumTasks())
	layout := hyperLayout{q: opts.Q, dim: data.Dim, tasks: data.NumTasks()}
	flatX, taskOf, yn := flatten(data)
	eng := newLCMEngine(newPairCache(flatX, data.Dim), layout, taskOf, yn, 1)
	for s := 0; s < 2; s++ {
		x0 := startPoint(layout, seed, s, nil)
		want := opt.LBFGS(combined(eng), x0, opt.LBFGSParams{MaxIter: 100})
		run := opt.NewLBFGSRun(x0)
		for _, until := range []int{rung1Iter, rung2Iter, 100} {
			run.Advance(eng.objective(), until)
		}
		got := run.Result()
		if got.Evals != want.Evals || math.Float64bits(got.F) != math.Float64bits(want.F) || !sameVecBits(got.X, want.X) {
			t.Errorf("start %d: resumed run ends at F = %v after %d evaluations, uninterrupted at %v after %d", s, got.F, got.Evals, want.F, want.Evals)
		}
	}
}

// TestFitEvalsHalved: on the recorded tuning-phase dataset a 4 x 100 fit
// spends at most half the likelihood evaluations of the four starts run out
// (0.40 over 720 recorded phases; 192 of 451 here, 0.43), and FitEvals
// counts every start, not just the survivor. The cap is explicit: at the
// default 4 x 50 the race has less to cut (138 of 235 here, 0.59).
func TestFitEvalsHalved(t *testing.T) {
	data, seed := recsysN54(t)
	opts := FitOptions{Seed: seed, MaxIter: 100}
	solo, _ := soloStarts(t, data, opts)
	unraced := 0
	for _, res := range solo {
		unraced += res.Evals
	}
	m, err := FitLCM(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	survivor := solo[survivorOf(t, m, solo)].Evals
	if m.FitEvals <= survivor+3*rung1Iter {
		t.Errorf("FitEvals = %d does not cover the eliminated starts (the survivor alone spent %d)", m.FitEvals, survivor)
	}
	if 2*m.FitEvals > unraced {
		t.Errorf("FitEvals = %d, over half of the %d evaluations of four un-raced starts", m.FitEvals, unraced)
	}
	t.Logf("raced %d, un-raced %d (%.2f)", m.FitEvals, unraced, float64(m.FitEvals)/float64(unraced))
}

// TestFitLCMDefaultCap: MaxIter 0 is a cap of 50, bit for bit, and on the
// recorded recsys phase — whose starts all run to any cap up to 100 — a cap
// of 100 is a different fit.
func TestFitLCMDefaultCap(t *testing.T) {
	data, seed := recsysN54(t)
	fit := func(maxIter int) *LCM {
		m, err := FitLCM(data, FitOptions{Seed: seed, MaxIter: maxIter})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	def, at50, at100 := fit(0), fit(50), fit(100)
	if def.FitEvals != at50.FitEvals || !sameVecBits(def.Hyperparameters(), at50.Hyperparameters()) {
		t.Errorf("default fit: %d evaluations, cap 50: %d; or their hyperparameters differ", def.FitEvals, at50.FitEvals)
	}
	if def.FitEvals == at100.FitEvals || sameVecBits(def.Hyperparameters(), at100.Hyperparameters()) {
		t.Errorf("default fit is the cap-100 fit (%d evaluations)", at100.FitEvals)
	}
}

// TestFitLCMRaceWorkerInvariant: a fit in which both rungs eliminate, large
// enough (n = 192) that the last survivor's evaluations fan out over the
// workers the eliminated starts freed, is the same model to the last bit at
// Workers 1 and 8.
func TestFitLCMRaceWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	rng := rand.New(rand.NewSource(71))
	data := syntheticDataset(rng, 3, evalParallelMin/3, 2, 0.05)
	opts := FitOptions{Q: 2, MaxIter: rung2Iter + 4, Seed: 72}
	fit := func(workers int) *LCM {
		o := opts
		o.Workers = workers
		m, err := FitLCM(data, o)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m8 := fit(1), fit(8)
	if m1.FitEvals != m8.FitEvals || math.Float64bits(m1.LogLik) != math.Float64bits(m8.LogLik) ||
		!sameVecBits(m1.Hyperparameters(), m8.Hyperparameters()) || !sameVecBits(m1.alpha, m8.alpha) {
		t.Fatalf("Workers changed the fit: log likelihood %v vs %v, %d vs %d evaluations", m1.LogLik, m8.LogLik, m1.FitEvals, m8.FitEvals)
	}
	for trial := 0; trial < 10; trial++ {
		x := []float64{rng.Float64(), rng.Float64()}
		mu1, v1 := m1.Predict(trial%3, x)
		mu8, v8 := m8.Predict(trial%3, x)
		if math.Float64bits(mu1) != math.Float64bits(mu8) || math.Float64bits(v1) != math.Float64bits(v8) {
			t.Fatalf("prediction differs: (%v, %v) vs (%v, %v)", mu1, v1, mu8, v8)
		}
	}
}

// TestFitLCMAllStartsFailed: outputs whose standardization overflows make
// every likelihood NaN; the fit reports it rather than returning a model.
func TestFitLCMAllStartsFailed(t *testing.T) {
	data := syntheticDataset(rand.New(rand.NewSource(9)), 2, 6, 2, 0.05)
	for i := range data.Y {
		for j := range data.Y[i] {
			data.Y[i][j] = math.Copysign(1e308, float64(1-2*(j%2)))
		}
	}
	data.Y[0][0] = 1e308
	data.Y[0][1] = 1e308
	if _, err := FitLCM(data, FitOptions{Seed: 1}); err == nil || !strings.Contains(err.Error(), "all hyperparameter starts failed") {
		t.Fatalf("got %v, want the all-starts-failed error", err)
	}
}

// TestFitLCMRefusesOversizedBudget: NumStarts sizes an allocation and
// MaxIter bounds a loop, so past their ceilings FitLCM answers with an error
// before doing either — 1<<40 starts used to end the process with "out of
// memory". At the ceilings it fits.
func TestFitLCMRefusesOversizedBudget(t *testing.T) {
	data := syntheticDataset(rand.New(rand.NewSource(9)), 2, 4, 1, 0.05)
	for _, o := range []FitOptions{
		{NumStarts: 1 << 40},
		{NumStarts: MaxNumStarts + 1},
		{MaxIter: 2_000_000_000},
		{MaxIter: MaxFitIter + 1},
	} {
		if m, err := FitLCM(data, o); err == nil || m != nil || !strings.Contains(err.Error(), "ceiling") {
			t.Errorf("NumStarts %d, MaxIter %d: got %v, want a ceiling error", o.NumStarts, o.MaxIter, err)
		}
	}
	if _, err := FitLCM(data, FitOptions{NumStarts: MaxNumStarts, MaxIter: 1}); err != nil {
		t.Errorf("NumStarts at the ceiling: %v", err)
	}
	if _, err := FitLCM(data, FitOptions{NumStarts: 1, MaxIter: MaxFitIter}); err != nil {
		t.Errorf("MaxIter at the ceiling: %v", err)
	}
}
