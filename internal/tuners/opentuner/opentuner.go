// Package opentuner re-implements the core architecture of OpenTuner
// (Ansel et al., PACT 2014), the first comparator of the paper's Section
// 6.6: an ensemble of model-free search techniques coordinated by a
// multi-armed bandit that allocates function evaluations to whichever
// technique has recently produced improvements (the "AUC bandit
// meta-technique").
package opentuner

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/tuners"
)

// Tuner is an OpenTuner-style bandit-ensemble autotuner.
type Tuner struct{}

const (
	window   = 50   // sliding history length used for AUC credit
	exploreC = 0.05 // UCB exploration constant (OpenTuner's default C)
)

// Name implements tuners.Tuner.
func (Tuner) Name() string { return "opentuner" }

// result is one completed evaluation in the shared results database.
type result struct {
	u []float64 // normalized configuration
	y float64   // objective 0
}

// database is the shared state all techniques draw from.
type database struct {
	results []result
	bestIdx int
}

func (db *database) best() result { return db.results[db.bestIdx] }

func (db *database) add(r result) bool {
	improved := len(db.results) == 0 || r.y < db.best().y
	db.results = append(db.results, r)
	if improved {
		db.bestIdx = len(db.results) - 1
	}
	return improved
}

// topK returns up to k results with the smallest objective (unsorted order
// is fine for mutation sources).
func (db *database) topK(k int) []result {
	if len(db.results) <= k {
		return db.results
	}
	// Selection without full sort: simple partial pass.
	out := append([]result(nil), db.results...)
	for i := 0; i < k; i++ {
		min := i
		for j := i + 1; j < len(out); j++ {
			if out[j].y < out[min].y {
				min = j
			}
		}
		out[i], out[min] = out[min], out[i]
	}
	return out[:k]
}

// technique proposes the next normalized configuration given the database.
type technique interface {
	propose(db *database, dim int, rng *rand.Rand) []float64
}

// uniformRandom: global random sampling.
type uniformRandom struct{}

func (uniformRandom) propose(db *database, dim int, rng *rand.Rand) []float64 {
	u := make([]float64, dim)
	for d := range u {
		u[d] = rng.Float64()
	}
	return u
}

// greedyMutationNormal: OpenTuner's NormalGreedyMutation — perturb a random
// subset of the best configuration's coordinates with Gaussian noise.
type greedyMutationNormal struct{ sigma float64 }

func (t greedyMutationNormal) propose(db *database, dim int, rng *rand.Rand) []float64 {
	u := append([]float64(nil), db.best().u...)
	d := rng.Intn(dim)
	u[d] += rng.NormFloat64() * t.sigma
	return clip01(u)
}

// greedyMutationUniform: UniformGreedyMutation — resample one coordinate of
// the best configuration uniformly.
type greedyMutationUniform struct{}

func (greedyMutationUniform) propose(db *database, dim int, rng *rand.Rand) []float64 {
	u := append([]float64(nil), db.best().u...)
	u[rng.Intn(dim)] = rng.Float64()
	return u
}

// differentialEvolution: DE/best/1/bin over the top of the database.
type differentialEvolution struct{ f, cr float64 }

func (t differentialEvolution) propose(db *database, dim int, rng *rand.Rand) []float64 {
	pool := db.topK(10)
	if len(pool) < 3 {
		return uniformRandom{}.propose(db, dim, rng)
	}
	a := pool[rng.Intn(len(pool))]
	b := pool[rng.Intn(len(pool))]
	best := db.best()
	u := make([]float64, dim)
	jrand := rng.Intn(dim)
	for d := 0; d < dim; d++ {
		if d == jrand || rng.Float64() < t.cr {
			u[d] = best.u[d] + t.f*(a.u[d]-b.u[d])
		} else {
			u[d] = best.u[d]
		}
	}
	return clip01(u)
}

// simplexReflection: a Nelder-Mead-flavored move — reflect a random recent
// point through the centroid of the current top dim+1 points.
type simplexReflection struct{}

func (simplexReflection) propose(db *database, dim int, rng *rand.Rand) []float64 {
	pool := db.topK(dim + 1)
	if len(pool) < 2 {
		return uniformRandom{}.propose(db, dim, rng)
	}
	centroid := make([]float64, dim)
	for _, r := range pool {
		for d := range centroid {
			centroid[d] += r.u[d]
		}
	}
	for d := range centroid {
		centroid[d] /= float64(len(pool))
	}
	worst := db.results[rng.Intn(len(db.results))]
	u := make([]float64, dim)
	for d := range u {
		u[d] = centroid[d] + (centroid[d] - worst.u[d])
	}
	return clip01(u)
}

// annealedWalk: simulated-annealing-style random walk around the most recent
// result with a shrinking step.
type annealedWalk struct{}

func (annealedWalk) propose(db *database, dim int, rng *rand.Rand) []float64 {
	last := db.results[len(db.results)-1]
	temp := 0.3 * math.Pow(0.97, float64(len(db.results)))
	if temp < 0.02 {
		temp = 0.02
	}
	u := make([]float64, dim)
	for d := range u {
		u[d] = last.u[d] + rng.NormFloat64()*temp
	}
	return clip01(u)
}

func clip01(u []float64) []float64 {
	for i, v := range u {
		if v < 0 {
			u[i] = 0
		} else if v > 1 {
			u[i] = 1
		}
	}
	return u
}

// banditArm tracks one technique's recent history for AUC credit.
type banditArm struct {
	tech technique
	uses int
}

// Tune implements tuners.Tuner: a bandit over the technique ensemble, one
// objective evaluation per round.
func (Tuner) Tune(p *core.Problem, task []float64, epsTot int, seed int64) (*core.TaskResult, error) {
	rng := rng.New(seed, rng.OpenTuner)

	arms := []*banditArm{
		{tech: uniformRandom{}},
		{tech: greedyMutationNormal{sigma: 0.1}},
		{tech: greedyMutationUniform{}},
		{tech: differentialEvolution{f: 0.7, cr: 0.5}},
		{tech: simplexReflection{}},
		{tech: annealedWalk{}},
	}
	type histEntry struct {
		arm      int
		improved bool
	}
	var history []histEntry

	// AUC credit: recency-weighted improvement rate over the sliding
	// window (OpenTuner's area-under-curve credit assignment).
	credit := func(arm int) float64 {
		num, den := 0.0, 0.0
		for pos, h := range history {
			if h.arm != arm {
				continue
			}
			w := float64(pos + 1)
			den += w
			if h.improved {
				num += w
			}
		}
		if den == 0 {
			return 0
		}
		return num / den
	}

	db := &database{}
	sel := 0 // the arm whose proposal is being evaluated

	propose := func() ([]float64, error) {
		// Select a technique: UCB over AUC credit.
		sel = 0
		bestScore := math.Inf(-1)
		total := len(history) + 1
		for a, arm := range arms {
			score := credit(a) + exploreC*math.Sqrt(2*math.Log(float64(total))/float64(arm.uses+1))
			if score > bestScore {
				bestScore = score
				sel = a
			}
		}
		arm := arms[sel]
		arm.uses++

		// Propose (falling back to random until the database is seeded),
		// then denormalize and repair feasibility.
		dim := p.Tuning.Dim()
		var u []float64
		if len(db.results) == 0 {
			u = uniformRandom{}.propose(db, dim, rng)
		} else {
			u = arm.tech.propose(db, dim, rng)
		}
		nat := p.Tuning.Denormalize(u)
		if !p.Tuning.Feasible(nat) {
			pts, err := sample.FeasibleUniform(p.Tuning, 1, rng)
			if err != nil {
				return nil, err
			}
			nat = pts[0]
		}
		return nat, nil
	}
	// A failed evaluation counts as a non-improvement for its arm.
	observe := func(nat, y []float64) {
		improved := y != nil && db.add(result{u: p.Tuning.Normalize(nat), y: y[0]})
		history = append(history, histEntry{arm: sel, improved: improved})
		if len(history) > window {
			history = history[1:]
		}
	}
	return tuners.Loop(p, task, epsTot, propose, observe)
}
