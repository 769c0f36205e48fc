package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/acq"
	"repro/internal/opt"
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
// NSGA-II search and its acquisition scoring have no other bitwise pin. The
// fits and the acquisition follow math.Exp's body, so each kind carries one
// recording per body amd64 runs, told apart by one argument the fused and
// the unfused exp_amd64.s round differently.
func TestMultiObjectiveGolden(t *testing.T) {
	body, known := map[uint64]int{
		0x3fea876812c0877b: 0, // FMA
		0x3fea876812c0877c: 1, // no FMA (GODEBUG=cpu.fma=off)
	}[math.Float64bits(math.Exp(-0.1875))]
	want := map[string][2]string{
		surrogate.KindLCM:     {"e62ef5cfe6c63543", "cb17f689cfffd4ea"},
		surrogate.KindGPIndep: {"34caf65bacf5db36", "509530b023f9c3db"},
		surrogate.KindSGP:     {"f25809569be98da9", "dfe7f47c10802cb4"},
		surrogate.KindRF:      {"d130d5fab8a4679f", "f8955c8db3f5ffc3"},
	}
	for _, kind := range surrogate.Kinds() {
		res, err := Run(moProblem(), [][]float64{{0}, {1}}, Options{
			EpsTot: 8, Seed: 5, Surrogate: kind, LogY: true, NumStarts: 2, ModelMaxIter: 15, Inducing: 3,
			MOBatch: 2, MOPopSize: 20, MOGenerations: 10, Workers: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		h := fnv.New64a()
		var b [8]byte
		for _, tr := range res.Tasks {
			if len(tr.X) != 8 {
				t.Fatalf("%s: task %v has %d samples, want 8", kind, tr.Task, len(tr.X))
			}
			for j := range tr.X {
				for _, v := range append(append([]float64(nil), tr.X[j]...), tr.Y[j]...) {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		if !known {
			t.Logf("%s: history %s (math.Exp runs a body no recording was made under)", kind, got)
			continue
		}
		if got != want[kind][body] {
			t.Errorf("%s: history hash %s, recorded %s", kind, got, want[kind][body])
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
	rng := rand.New(rand.NewSource(st.opts.Seed ^ hash2(13+i, st.minSamples())))
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
