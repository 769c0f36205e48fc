// Package surf implements a SuRF-style autotuner (Balaprakash, "Search
// using Random Forest", discussed in the paper's Section 5): model the
// objective with a random-forest regressor — which handles categorical
// parameters elegantly via axis-aligned splits — and pick each next
// configuration by maximizing Expected Improvement under the forest's
// ensemble mean/variance over a pool of random candidates.
package surf

import (
	"math"
	"math/rand"

	"repro/internal/acq"
	"repro/internal/core"
	"repro/internal/rf"
	"repro/internal/sample"
	"repro/internal/tuners"
)

// Tuner is a random-forest surrogate autotuner.
type Tuner struct{}

const (
	trees      = 40  // forest size
	candidates = 200 // random pool scored per iteration
	warmup     = 4   // dim+warmup random samples come before the first model
)

// Name implements tuners.Tuner.
func (Tuner) Name() string { return "surf" }

// Tune implements tuners.Tuner.
func (Tuner) Tune(p *core.Problem, task []float64, epsTot int, seed int64) (*core.TaskResult, error) {
	rng := rand.New(rand.NewSource(seed))
	var feats [][]float64 // normalized configurations for the forest
	var targets []float64
	failed := false // the last evaluation failed

	random := func() ([]float64, error) {
		pts, err := sample.FeasibleUniform(p.Tuning, 1, rng)
		if err != nil {
			return nil, err
		}
		return pts[0], nil
	}
	propose := func() ([]float64, error) {
		// Warm-up, and after a failed evaluation: spend the attempt on a
		// fresh random point.
		if len(targets) < p.Tuning.Dim()+warmup || failed {
			return random()
		}
		forest, err := rf.Fit(feats, targets, rf.Params{
			Trees: trees, Seed: seed + int64(len(targets)),
		})
		if err != nil {
			return nil, err
		}
		yBest := targets[0]
		for _, v := range targets {
			if v < yBest {
				yBest = v
			}
		}
		var nat []float64
		bestEI := math.Inf(-1)
		scratch := make([]float64, trees)
		for c := 0; c < candidates; c++ {
			x, err := random()
			if err != nil {
				return nil, err
			}
			mean, variance := forest.PredictWith(scratch, p.Tuning.Normalize(x))
			if ei := acq.ExpectedImprovement(mean, variance, yBest); ei > bestEI {
				bestEI = ei
				nat = x
			}
		}
		return nat, nil
	}
	observe := func(nat, y []float64) {
		failed = y == nil
		if failed {
			return
		}
		feats = append(feats, p.Tuning.Normalize(nat))
		targets = append(targets, y[0])
	}
	return tuners.Loop(p, task, epsTot, propose, observe)
}
