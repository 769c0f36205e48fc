// Package hpbandster re-implements the model-based search of HpBandSter
// (Falkner et al., BOHB, ICML 2018), the second comparator of the paper's
// Section 6.6. The paper disables the multi-armed-bandit/hyperband feature
// ("since it requires running applications with varying fidelity/budgets"),
// leaving BOHB's Tree Parzen Estimator (TPE) Bayesian optimization: model
// the density of good configurations l(x) and bad configurations g(x) with
// kernel density estimators and evaluate the candidate maximizing l(x)/g(x).
package hpbandster

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/tuners"
)

// BOHB's defaults.
const (
	topQuantile     = 0.15    // splits observations into the good/bad sets (top_n_percent=15)
	numCandidates   = 24      // samples from l(x) scored per proposal (num_samples, subsampled)
	randomFraction  = 1.0 / 3 // share of pure random proposals after the warm-up
	bandwidthFactor = 3       // widens the sampling kernels
)

// Tuner is a TPE-based autotuner (BOHB without hyperband).
type Tuner struct{}

// Name implements tuners.Tuner.
func (Tuner) Name() string { return "hpbandster" }

// obs is one completed observation in normalized coordinates.
type obs struct {
	u []float64
	y float64
}

// Tune implements tuners.Tuner.
func (Tuner) Tune(p *core.Problem, task []float64, epsTot int, seed int64) (*core.TaskResult, error) {
	rng := rng.New(seed, rng.HpBandSter)
	var observations []obs

	propose := func() ([]float64, error) {
		// Sampling is random until dim+2 observations are in, and for a
		// randomFraction of the proposals after that.
		dim := p.Tuning.Dim()
		if len(observations) >= dim+2 && rng.Float64() >= randomFraction {
			if nat := proposeTPE(p, observations, dim, rng); nat != nil {
				return nat, nil
			}
		}
		pts, err := sample.FeasibleUniform(p.Tuning, 1, rng)
		if err != nil {
			return nil, err
		}
		return pts[0], nil
	}
	observe := func(nat, y []float64) {
		if y != nil {
			observations = append(observations, obs{u: p.Tuning.Normalize(nat), y: y[0]})
		}
	}
	return tuners.Loop(p, task, epsTot, propose, observe)
}

// proposeTPE builds the l/g KDEs and returns the feasible candidate with the
// best density ratio, or nil when none is feasible.
func proposeTPE(p *core.Problem, observations []obs, dim int, rng *rand.Rand) []float64 {
	// Split observations at the top quantile.
	idx := make([]int, len(observations))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return observations[idx[a]].y < observations[idx[b]].y })
	nGood := int(math.Ceil(topQuantile * float64(len(observations))))
	if nGood < 2 {
		nGood = 2
	}
	if nGood >= len(observations) {
		nGood = len(observations) - 1
	}
	good := make([][]float64, 0, nGood)
	bad := make([][]float64, 0, len(observations)-nGood)
	for rank, i := range idx {
		if rank < nGood {
			good = append(good, observations[i].u)
		} else {
			bad = append(bad, observations[i].u)
		}
	}
	bwGood := scottBandwidths(good, dim)
	bwBad := scottBandwidths(bad, dim)

	var bestNat []float64
	bestScore := math.Inf(-1)
	for c := 0; c < numCandidates; c++ {
		// Sample from l(x): pick a good point, jitter by widened bandwidth.
		center := good[rng.Intn(len(good))]
		u := make([]float64, dim)
		for d := range u {
			u[d] = center[d] + rng.NormFloat64()*bwGood[d]*bandwidthFactor
			if u[d] < 0 {
				u[d] = 0
			} else if u[d] > 1 {
				u[d] = 1
			}
		}
		nat := p.Tuning.Denormalize(u)
		if !p.Tuning.Feasible(nat) {
			continue
		}
		un := p.Tuning.Normalize(nat)
		score := logKDE(un, good, bwGood) - logKDE(un, bad, bwBad)
		if score > bestScore {
			bestScore = score
			bestNat = nat
		}
	}
	return bestNat
}

// scottBandwidths returns per-dimension Gaussian KDE bandwidths via Scott's
// rule, floored to keep the estimator proper on clustered data.
func scottBandwidths(pts [][]float64, dim int) []float64 {
	n := float64(len(pts))
	bw := make([]float64, dim)
	factor := math.Pow(n, -1.0/(float64(dim)+4))
	for d := 0; d < dim; d++ {
		mean := 0.0
		for _, p := range pts {
			mean += p[d]
		}
		mean /= n
		varr := 0.0
		for _, p := range pts {
			varr += (p[d] - mean) * (p[d] - mean)
		}
		sd := math.Sqrt(varr / n)
		bw[d] = sd * factor
		if bw[d] < 1e-3 {
			bw[d] = 1e-3
		}
	}
	return bw
}

// logKDE evaluates the log of a product-Gaussian KDE at u.
func logKDE(u []float64, pts [][]float64, bw []float64) float64 {
	if len(pts) == 0 {
		return math.Inf(-1)
	}
	total := math.Inf(-1)
	for _, p := range pts {
		lp := 0.0
		for d := range u {
			z := (u[d] - p[d]) / bw[d]
			lp += -0.5*z*z - math.Log(bw[d]*math.Sqrt(2*math.Pi))
		}
		total = logAdd(total, lp)
	}
	return total - math.Log(float64(len(pts)))
}

func logAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}
