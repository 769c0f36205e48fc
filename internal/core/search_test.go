package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/space"
	"repro/internal/surrogate"
)

// searchProblem is a small mixed space — a real, an integer and a
// categorical under one constraint — over two tasks. The engine built on it
// never evaluates anything: the tests install histories directly.
func searchProblem() *Problem {
	p := &Problem{
		Name:    "search-hostile",
		Tasks:   space.MustNew(space.NewReal("t", 0, 1)),
		Tuning:  space.MustNew(space.NewReal("x", 0, 1), space.NewInteger("k", 1, 8), space.NewCategorical("c", "a", "b", "c")),
		Outputs: space.NewOutputSpace("y"),
	}
	x, k := p.Tuning.IndexOf("x"), p.Tuning.IndexOf("k")
	p.Tuning.AddConstraint("x·k ≤ 6", func(v []float64) bool { return v[x]*v[k] <= 6 })
	return p
}

// hostileHistory fills the engine's history with n samples over its two
// tasks (task 1 gets the odd one): every output spanning twelve decades, and
// every third configuration followed by a near-duplicate twin whose real
// coordinate differs in the twelfth digit.
func hostileHistory(st *state, n int, rng *rand.Rand) {
	for j := 0; j < n; j++ {
		i := j % 2
		var x []float64
		if prev := len(st.X[i]); prev > 0 && prev%3 == 0 {
			x = append([]float64(nil), st.X[i][prev-1]...)
			x[0] = math.Min(1, x[0]+1e-12)
		} else {
			x = []float64{rng.Float64(), float64(1 + rng.Intn(8)), float64(rng.Intn(3))}
		}
		st.X[i] = append(st.X[i], x)
		y := make([]float64, st.p.Outputs.Dim())
		for s := range y {
			y[s] = math.Pow(10, 12*rng.Float64()-6)
		}
		st.Y[i] = append(st.Y[i], y)
	}
}

// searchBatchOneAtATime is searchBatch as it ran before the acquisition
// search was batched — sequential PSO over a one-point score through
// Model.PredictInto, and the random pool scored candidate by candidate —
// kept as the oracle the batched search must match bit for bit.
func (st *state) searchBatchOneAtATime(i int, model surrogate.Model, tv func(float64) float64, fs *featureScale) [][]float64 {
	ws := model.NewWorkspace()
	var chosen, chosenNorm [][]float64
	for b := 0; b < st.opts.BatchEvals; b++ {
		yBest, bestIdx := math.Inf(1), 0
		for j, y := range st.Y[i] {
			if v := tv(y[0]); v < yBest {
				yBest, bestIdx = v, j
			}
		}
		rng := rng.New(st.opts.Seed, rng.Search, uint64(i), uint64(st.minSamples()), uint64(b))
		dim := st.p.Tuning.Dim()
		ev := st.newAcqSearch(i, model, ws, fs, yBest, chosenNorm)
		score := func(u []float64) float64 {
			c := &ev.slots[0]
			pt, ok := c.point(u)
			if !ok {
				return math.Inf(1)
			}
			mu, v := model.PredictInto(ws, i, pt)
			return ev.damped(c.xNat, mu, v)
		}
		params := st.opts.Search
		params.Seeds = append(append([][]float64(nil), params.Seeds...), st.p.Tuning.Normalize(st.X[i][bestIdx]))
		res := opt.PSO(score, dim, params, rng)
		bestU, bestScore := res.X, res.F
		cand := make([]float64, dim)
		for c := 0; c < 8*dim+32; c++ {
			for d := range cand {
				cand[d] = rng.Float64()
			}
			if s := score(cand); s < bestScore {
				bestScore = s
				bestU, cand = cand, bestU
			}
		}
		x := st.p.Tuning.Denormalize(bestU)
		if !st.p.Tuning.Feasible(x) || containsConfig(st.X[i], x) || containsConfig(avoidNative(st, chosenNorm), x) {
			if pts, err := sample.FeasibleUniform(st.p.Tuning, 1, rng); err == nil {
				x = pts[0]
			}
		}
		chosen = append(chosen, x)
		chosenNorm = append(chosenNorm, st.p.Tuning.Normalize(x))
	}
	return chosen
}

// TestSearchOutputInvariantEveryBackend: for every surrogate kind, over
// histories with outputs spanning twelve decades, near-duplicate
// configurations and sizes on both sides of a multiple of four, every
// suggestion searchBatch returns is finite, in bounds, on its parameter's
// grid and feasible — and is, bit for bit, the suggestion of the
// one-candidate-at-a-time search.
func TestSearchOutputInvariantEveryBackend(t *testing.T) {
	p := searchProblem()
	for _, kind := range surrogate.Kinds() {
		for _, n := range []int{63, 64, 65} {
			name := fmt.Sprintf("%s n=%d", kind, n)
			eng, err := NewEngine(p, [][]float64{{0}, {1}}, Options{
				EpsTot: 100, Seed: int64(n), Surrogate: kind, NumStarts: 2, ModelMaxIter: 15, BatchEvals: 2, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := eng.st
			hostileHistory(st, n, rand.New(rand.NewSource(int64(n))))
			models, tvs, fs, err := st.refitPhase(1, st.minSamples())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range st.tasks {
				got := st.searchBatch(i, models[0], tvs[0], fs)
				want := st.searchBatchOneAtATime(i, models[0], tvs[0], fs)
				if len(got) != len(want) {
					t.Fatalf("%s task %d: %d suggestions, one at a time %d", name, i, len(got), len(want))
				}
				for b, x := range got {
					for d, prm := range p.Tuning.Params {
						lo, hi := prm.Lo, prm.Hi
						if prm.Kind == space.Categorical {
							lo, hi = 0, float64(len(prm.Categories)-1)
						}
						if !(x[d] >= lo && x[d] <= hi) || prm.Kind != space.Real && x[d] != math.Trunc(x[d]) {
							t.Fatalf("%s task %d suggestion %d: %s = %v is not a value of the parameter", name, i, b, prm.Name, x[d])
						}
						if math.Float64bits(x[d]) != math.Float64bits(want[b][d]) {
							t.Fatalf("%s task %d suggestion %d: %v, one at a time %v", name, i, b, x, want[b])
						}
					}
					if !p.Tuning.Feasible(x) {
						t.Fatalf("%s task %d suggestion %d: %v is infeasible", name, i, b, x)
					}
				}
			}
		}
	}
}

// The batch score path — groups of candidates through the slots, one
// PredictBatchInto per group, the damping near chosen points — allocates
// nothing, for a batch spanning a full group and a partial one with an
// infeasible candidate in each. TestCandidatePointZeroAllocs runs the
// two-objective counterpart.
func TestAcqScoreZeroAllocs(t *testing.T) {
	p := searchProblem()
	eng, err := NewEngine(p, [][]float64{{0}, {1}}, Options{EpsTot: 100, Seed: 4, NumStarts: 2, ModelMaxIter: 15, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.st
	hostileHistory(st, 30, rand.New(rand.NewSource(4)))
	models, _, fs, err := st.refitPhase(1, st.minSamples())
	if err != nil {
		t.Fatal(err)
	}
	ev := st.newAcqSearch(0, models[0], models[0].NewWorkspace(), fs, 1, [][]float64{{0.4, 0.5, 0.5}})
	us := [][]float64{{0.4, 0.5, 0.1}, {0.99, 0.99, 0.5}, {0.2, 0.1, 0.9}, {0.41, 0.5, 0.5}, {0.7, 0.3, 0.3}, {0.99, 0.95, 0.2}}
	out := make([]float64, len(us))
	ev.score(us, out)
	if !math.IsInf(out[1], 1) || math.IsInf(out[0], 0) {
		t.Fatalf("scores %v: want candidate 1 infeasible (+Inf) and candidate 0 scored", out)
	}
	allocs := testing.AllocsPerRun(100, func() { ev.score(us, out) })
	if allocs != 0 {
		t.Fatalf("batch score path allocates %v times per call, want 0", allocs)
	}
}
