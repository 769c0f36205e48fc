// Package singletask wraps the MLA engine as a single-task (δ=1) tuner —
// exactly what the paper calls "single-task learning": GPTune run on one
// task at a time, the comparator of Section 6.5.
package singletask

import (
	"repro/internal/core"
	"repro/internal/opt"
)

// Tuner runs core MLA with δ=1 per task, at the engine's defaults and the
// 20-particle, 30-iteration search the paper's comparisons use.
type Tuner struct{}

// Name implements tuners.Tuner.
func (Tuner) Name() string { return "gptune-singletask" }

// Tune implements tuners.Tuner.
func (Tuner) Tune(p *core.Problem, task []float64, epsTot int, seed int64) (*core.TaskResult, error) {
	res, err := core.Run(p, [][]float64{task}, core.Options{
		EpsTot: epsTot,
		Seed:   seed,
		Search: opt.PSOParams{Particles: 20, MaxIter: 30},
	})
	if err != nil {
		return nil, err
	}
	tr := res.Tasks[0]
	return &tr, nil
}

// Stats is unavailable through the single-task interface; use core.Run
// directly when phase timings are needed (Table 3).
