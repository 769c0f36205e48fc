package core

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/opt"
	"repro/internal/sample"
	"repro/internal/surrogate"
)

// searchMO returns up to MOBatch native configurations for task i chosen
// from the NSGA-II front of the negated per-objective EI vector. Each
// objective scores the population through its own acqSearch with nothing to
// avoid, so its score is that objective's −EI (NewEngine allows only EI on a
// multi-objective problem).
func (st *state) searchMO(i int, models []surrogate.Model, transforms []func(float64) float64, fs *featureScale) [][]float64 {
	gamma := len(models)
	evs := make([]*acqSearch, gamma)
	var seeds [][]float64 // the per-objective incumbents
	for s, model := range models {
		yBest, best := math.Inf(1), 0
		for j, y := range st.Y[i] {
			if v := transforms[s](y[s]); v < yBest {
				yBest = v
			}
			if y[s] < st.Y[i][best][s] {
				best = j
			}
		}
		evs[s] = st.newAcqSearch(i, model, model.NewWorkspace(), fs, yBest, nil)
		seeds = append(seeds, st.p.Tuning.Normalize(st.X[i][best]))
	}
	rng := rand.New(rand.NewSource(st.opts.Seed ^ hash2(13+i, st.minSamples())))
	objective := func(us, out [][]float64) {
		col := make([]float64, len(us))
		for k := range out {
			out[k] = make([]float64, gamma) // NSGA-II keeps every individual's vector
		}
		for s, ev := range evs {
			ev.score(us, col)
			for k, v := range col {
				out[k][s] = v
			}
		}
	}
	front := opt.NSGAII(objective, st.p.Tuning.Dim(), opt.NSGAIIParams{
		PopSize:     st.opts.MOPopSize,
		Generations: st.opts.MOGenerations,
		Seeds:       seeds,
	}, rng)

	// Drop hopeless candidates (zero EI in every objective).
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
	// Spread the batch across the front (sorted by first acquisition).
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
