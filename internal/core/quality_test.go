package core_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	_ "repro/internal/bench/all" // registers recsys and analytical
	"repro/internal/core"
	"repro/internal/sample"
)

// The raced fit (gp.FitLCM) spends about 0.4 of the likelihood evaluations
// the un-raced one did, and moves every default LCM history. What it must
// not move is what the evaluations buy. parentQuality is this test's own
// measurement taken on the commit before the race, 41e11e8 (four starts,
// each run to its cap): mean and standard error, over the eight runs, of the
// run's mean final regret and mean evaluations to within 5 % of the known
// optimum. A fit policy that is too cheap shows here — one start cut at ten
// iterations more than doubles gemm's regret — so a change to the rungs
// re-runs this before it re-records anything.
var parentQuality = map[string]struct{ regret, regretSE, to5, to5SE float64 }{
	"recsys":     {3.357, 0.487, 16.62, 1.22},
	"analytical": {93.134, 13.694, 23.42, 0.69},
}

// TestRacedFitKeepsTuningQuality: default MLA (δ = 3, ε = 24) on recsys and
// on the analytical function with t ∈ [0, 1.5] — where its optimum sits well
// away from zero, so a relative regret means something — ends no further
// from the optimum, and gets within 5 % of it no later, than the parent's
// mean plus twice its standard error.
func TestRacedFitKeepsTuningQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const runs, delta, eps = 8, 3, 24
	for _, name := range []string{"recsys", "analytical"} {
		sc, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		prob, err := sc.Problem(nil)
		if err != nil {
			t.Fatal(err)
		}
		var regret, to5 []float64
		for seed := int64(0); seed < runs; seed++ {
			rng := rand.New(rand.NewSource(seed + 100))
			var tasks [][]float64
			if name == "analytical" {
				for _, u := range sample.LatinHypercube(delta, 1, rng) {
					tasks = append(tasks, []float64{1.5 * u[0]})
				}
			} else if tasks, err = sample.FeasibleLHS(prob.Tasks, delta, rng); err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(prob, tasks, core.Options{EpsTot: eps, Seed: seed, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			runRegret, runTo5 := 0.0, 0.0
			for i, task := range tasks {
				optimum, ok := sc.Optimum(task)
				if !ok {
					t.Fatalf("%s: no optimum for task %v", name, task)
				}
				best, first := math.Inf(1), eps+1
				for j, y := range res.Tasks[i].Y {
					best = math.Min(best, y[0])
					if first > eps && best-optimum <= 0.05*math.Abs(optimum) {
						first = j + 1
					}
				}
				runRegret += (best - optimum) / math.Abs(optimum) * 100 / delta
				runTo5 += float64(first) / delta
			}
			regret, to5 = append(regret, runRegret), append(to5, runTo5)
		}
		parent := parentQuality[name]
		gotRegret, regretSE := meanSE(regret)
		gotTo5, to5SE := meanSE(to5)
		t.Logf("%s: final regret %.3f ± %.3f %% (parent %.3f ± %.3f), evaluations to 5 %% %.2f ± %.2f (parent %.2f ± %.2f)",
			name, gotRegret, regretSE, parent.regret, parent.regretSE, gotTo5, to5SE, parent.to5, parent.to5SE)
		if limit := parent.regret + 2*parent.regretSE; gotRegret > limit {
			t.Errorf("%s: mean final regret %.3f %%, parent %.3f + 2 × %.3f = %.3f", name, gotRegret, parent.regret, parent.regretSE, limit)
		}
		if limit := parent.to5 + 2*parent.to5SE; gotTo5 > limit {
			t.Errorf("%s: mean evaluations to 5 %% %.2f, parent %.2f + 2 × %.2f = %.2f", name, gotTo5, parent.to5, parent.to5SE, limit)
		}
	}
}

// meanSE returns the mean of xs and its standard error.
func meanSE(xs []float64) (mean, se float64) {
	for _, x := range xs {
		mean += x / float64(len(xs))
	}
	for _, x := range xs {
		se += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(se / float64(len(xs)-1) / float64(len(xs)))
}
