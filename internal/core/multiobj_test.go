package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/acq"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/space"
	"repro/internal/surrogate"
)

// moProblem is searchProblem with two conflicting positive outputs: the
// mixed, constrained space gives NSGA-II infeasible candidates to score.
func moProblem() *Problem {
	p := searchProblem()
	p.Outputs = space.NewOutputSpace("f1", "f2")
	p.Objective = func(task, x []float64) ([]float64, error) {
		a, b := x[0]-0.3-0.2*task[0], x[0]-0.8
		return []float64{a*a + 0.05*x[1] + 0.1*x[2] + 0.01, b*b*x[1] + 0.2*(2-x[2]) + 0.01}, nil
	}
	return p
}

// TestMultiObjectiveGolden pins the history of a small two-task,
// two-objective study for every surrogate kind at math.Float64bits: the
// NSGA-II search and its acquisition scoring have no other bitwise pin.
// Re-recorded when every stream (initial LHS, fit starts, NSGA-II, trees)
// moved to rng.New(seed, tag, labels…).
func TestMultiObjectiveGolden(t *testing.T) {
	want := map[string]string{
		surrogate.KindLCM:     "3dd3e842109611b1",
		surrogate.KindGPIndep: "ff33a32286378e48",
		surrogate.KindSGP:     "ed306ace5812cda0",
		surrogate.KindRF:      "05584108170686a2",
	}
	for _, kind := range surrogate.Kinds() {
		res, err := Run(moProblem(), [][]float64{{0}, {1}}, Options{
			EpsTot: 8, Seed: 5, Surrogate: kind, LogY: true, NumStarts: 2, ModelMaxIter: 15, Inducing: 3,
			MOBatch: 2, MOPopSize: 20, MOGenerations: 10, Workers: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, tr := range res.Tasks {
			if len(tr.X) != 8 {
				t.Fatalf("%s: task %v has %d samples, want 8", kind, tr.Task, len(tr.X))
			}
		}
		if got := historyHash(res); got != want[kind] {
			t.Errorf("%s: history hash %s, recorded %s", kind, got, want[kind])
		}
	}
}

// searchMOOneAtATime is searchMO as it ran before NSGA-II scored whole
// populations through acqSearch — one candidate per call, each objective's
// PredictInto and −EI — kept as the oracle the grouped search must match bit
// for bit.
func (st *state) searchMOOneAtATime(i int, models []surrogate.Model, transforms []func(float64) float64, fs *featureScale) [][]float64 {
	gamma := len(models)
	yBest := make([]float64, gamma)
	for s := 0; s < gamma; s++ {
		yBest[s] = math.Inf(1)
		for _, y := range st.Y[i] {
			if v := transforms[s](y[s]); v < yBest[s] {
				yBest[s] = v
			}
		}
	}
	rng := rng.New(st.opts.Seed, rng.MO, uint64(i), uint64(st.minSamples()))
	wss := make([]surrogate.Workspace, gamma)
	for s := range wss {
		wss[s] = models[s].NewWorkspace()
	}
	cand := st.newCandidate(i, fs)
	objective := func(u []float64) []float64 {
		out := make([]float64, gamma)
		pt, ok := cand.point(u)
		for s := range out {
			if !ok {
				out[s] = math.Inf(1)
				continue
			}
			mu, v := models[s].PredictInto(wss[s], i, pt)
			out[s] = -acq.ExpectedImprovement(mu, v, yBest[s])
		}
		return out
	}
	var seeds [][]float64
	for s := 0; s < gamma; s++ {
		best := 0
		for j, y := range st.Y[i] {
			if y[s] < st.Y[i][best][s] {
				best = j
			}
		}
		seeds = append(seeds, st.p.Tuning.Normalize(st.X[i][best]))
	}
	front := opt.NSGAII(func(xs, out [][]float64) {
		for k, x := range xs {
			out[k] = objective(x)
		}
	}, st.p.Tuning.Dim(), opt.NSGAIIParams{
		PopSize:     st.opts.MOPopSize,
		Generations: st.opts.MOGenerations,
		Seeds:       seeds,
	}, rng)
	kept := front[:0]
	for _, pr := range front {
		useful := false
		for _, v := range pr.F {
			if v < 0 {
				useful = true
				break
			}
		}
		if useful {
			kept = append(kept, pr)
		}
	}
	if len(kept) == 0 {
		kept = front
	}
	sort.Slice(kept, func(a, b int) bool { return kept[a].F[0] < kept[b].F[0] })
	k := st.opts.MOBatch
	var out [][]float64
	for b := 0; b < k; b++ {
		var xNat []float64
		if len(kept) > 0 {
			idx := b * len(kept) / k
			if idx >= len(kept) {
				idx = len(kept) - 1
			}
			xNat = st.p.Tuning.Denormalize(kept[idx].X)
		}
		if xNat == nil || !st.p.Tuning.Feasible(xNat) || containsConfig(st.X[i], xNat) || containsConfig(out, xNat) {
			if pts, err := sample.FeasibleUniform(st.p.Tuning, 1, rng); err == nil {
				xNat = pts[0]
			} else {
				continue
			}
		}
		out = append(out, xNat)
	}
	return out
}

// TestSearchMOMatchesOneAtATime: for every surrogate kind, over two-output
// histories spanning twelve decades with near-duplicate configurations and
// sizes on both sides of a multiple of four, every suggestion searchMO
// returns is, bit for bit, the suggestion of the one-candidate-at-a-time
// search.
func TestSearchMOMatchesOneAtATime(t *testing.T) {
	for _, kind := range surrogate.Kinds() {
		for _, n := range []int{63, 64, 65} {
			name := fmt.Sprintf("%s n=%d", kind, n)
			eng, err := NewEngine(moProblem(), [][]float64{{0}, {1}}, Options{
				EpsTot: 100, Seed: int64(n), Surrogate: kind, LogY: true, NumStarts: 2, ModelMaxIter: 15, MOBatch: 3, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := eng.st
			hostileHistory(st, n, rand.New(rand.NewSource(int64(n))))
			models, tvs, fs, err := st.refitPhase(2, st.minSamples())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range st.tasks {
				got := st.searchMO(i, models, tvs, fs)
				want := st.searchMOOneAtATime(i, models, tvs, fs)
				if len(got) != len(want) {
					t.Fatalf("%s task %d: %d suggestions, one at a time %d", name, i, len(got), len(want))
				}
				for b, x := range got {
					for d := range x {
						if math.Float64bits(x[d]) != math.Float64bits(want[b][d]) {
							t.Fatalf("%s task %d suggestion %d: %v, one at a time %v", name, i, b, x, want[b])
						}
					}
				}
			}
		}
	}
}
