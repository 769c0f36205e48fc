package opt

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/acq"
)

// NSGAIIParams configures the NSGA-II multi-objective evolutionary algorithm
// (Deb et al. 2002), which GPTune's multi-objective search phase relies on
// (paper Section 3.2).
type NSGAIIParams struct {
	PopSize     int // population size (default 40, rounded up to even)
	Generations int // generations (default 50)
	Seeds       [][]float64
}

func (p *NSGAIIParams) defaults() {
	if p.PopSize <= 0 {
		p.PopSize = 40
	}
	if p.PopSize%2 == 1 {
		p.PopSize++
	}
	if p.Generations <= 0 {
		p.Generations = 50
	}
}

// Deb et al.'s operator settings: SBX and polynomial-mutation distribution
// indices and the crossover probability (the per-gene mutation probability
// is 1/dim, computed in polyMutate).
const (
	crossoverEta = 15.0
	mutationEta  = 20.0
	crossoverP   = 0.9
)

type individual struct {
	x        []float64
	f        []float64
	rank     int
	crowding float64
}

// ParetoResult is one non-dominated point found by NSGAII.
type ParetoResult struct {
	X []float64
	F []float64
}

// NSGAII minimizes all components of f over [0,1]^dim and returns the final
// population's first non-dominated front. The initial population and each
// generation's offspring are drawn whole and then scored in one call of f.
func NSGAII(f MultiObjective, dim int, params NSGAIIParams, rng *rand.Rand) []ParetoResult {
	params.defaults()
	n := params.PopSize

	xs := make([][]float64, n)
	for i := range xs {
		if i < len(params.Seeds) {
			xs[i] = clip01(append([]float64(nil), params.Seeds[i]...))
		} else {
			xs[i] = randomPoint(dim, rng)
		}
	}
	pop := evaluate(f, xs)
	rankAndCrowd(pop)

	for gen := 0; gen < params.Generations; gen++ {
		// Offspring via binary tournament + SBX + polynomial mutation
		// (n is even, so the children fill the brood exactly).
		for k := 0; k < n; k += 2 {
			p1 := tournament(pop, rng)
			p2 := tournament(pop, rng)
			xs[k], xs[k+1] = sbxCrossover(p1.x, p2.x, rng)
			polyMutate(xs[k], rng)
			polyMutate(xs[k+1], rng)
		}
		offspring := evaluate(f, xs)
		// Environmental selection over parents ∪ offspring.
		union := append(append([]*individual{}, pop...), offspring...)
		rankAndCrowd(union)
		sort.SliceStable(union, func(i, j int) bool { return crowdedLess(union[i], union[j]) })
		pop = union[:n]
		rankAndCrowd(pop)
	}

	var front []ParetoResult
	for _, ind := range pop {
		if ind.rank == 0 {
			front = append(front, ParetoResult{
				X: append([]float64(nil), ind.x...),
				F: append([]float64(nil), ind.f...),
			})
		}
	}
	return dedupFront(front)
}

// evaluate scores the points xs in one call of f, one individual each.
func evaluate(f MultiObjective, xs [][]float64) []*individual {
	fs := make([][]float64, len(xs))
	f(xs, fs)
	pop := make([]*individual, len(xs))
	for k, x := range xs {
		pop[k] = &individual{x: x, f: fs[k]}
	}
	return pop
}

// dedupFront removes exact duplicates in objective space.
func dedupFront(front []ParetoResult) []ParetoResult {
	out := front[:0]
	for _, p := range front {
		dup := false
		for _, q := range out {
			same := true
			for k := range p.F {
				if p.F[k] != q.F[k] { //gptlint:ignore float-eq exact duplicate detection on stored objective vectors
					same = false
					break
				}
			}
			if same {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	return out
}

func tournament(pop []*individual, rng *rand.Rand) *individual {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if crowdedLess(a, b) {
		return a
	}
	return b
}

// crowdedLess implements NSGA-II's crowded-comparison operator: lower rank
// first; within a rank, larger crowding distance first.
func crowdedLess(a, b *individual) bool {
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	return a.crowding > b.crowding
}

// rankAndCrowd assigns non-domination ranks (fast non-dominated sort) and
// per-front crowding distances.
func rankAndCrowd(pop []*individual) {
	n := len(pop)
	dominatedBy := make([][]int, n) // indices i dominates
	domCount := make([]int, n)      // how many dominate i
	var current []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if acq.Dominates(pop[i].f, pop[j].f) {
				dominatedBy[i] = append(dominatedBy[i], j)
			} else if acq.Dominates(pop[j].f, pop[i].f) {
				domCount[i]++
			}
		}
		if domCount[i] == 0 {
			pop[i].rank = 0
			current = append(current, i)
		}
	}
	rank := 0
	for len(current) > 0 {
		crowdFront(pop, current)
		var next []int
		for _, i := range current {
			for _, j := range dominatedBy[i] {
				domCount[j]--
				if domCount[j] == 0 {
					pop[j].rank = rank + 1
					next = append(next, j)
				}
			}
		}
		rank++
		current = next
	}
}

// crowdFront computes crowding distances for the individuals whose indices
// are listed in front.
func crowdFront(pop []*individual, front []int) {
	m := len(front)
	if m == 0 {
		return
	}
	for _, i := range front {
		pop[i].crowding = 0
	}
	nObj := len(pop[front[0]].f)
	idx := append([]int(nil), front...)
	for k := 0; k < nObj; k++ {
		sort.Slice(idx, func(a, b int) bool { return pop[idx[a]].f[k] < pop[idx[b]].f[k] })
		lo, hi := pop[idx[0]].f[k], pop[idx[m-1]].f[k]
		pop[idx[0]].crowding = math.Inf(1)
		pop[idx[m-1]].crowding = math.Inf(1)
		if hi == lo { //gptlint:ignore float-eq degenerate-range guard; equal extremes would divide by zero
			continue
		}
		for a := 1; a < m-1; a++ {
			pop[idx[a]].crowding += (pop[idx[a+1]].f[k] - pop[idx[a-1]].f[k]) / (hi - lo)
		}
	}
}

// sbxCrossover performs simulated binary crossover, returning two children.
func sbxCrossover(p1, p2 []float64, rng *rand.Rand) ([]float64, []float64) {
	dim := len(p1)
	c1 := append([]float64(nil), p1...)
	c2 := append([]float64(nil), p2...)
	if rng.Float64() > crossoverP {
		return c1, c2
	}
	for d := 0; d < dim; d++ {
		if rng.Float64() > 0.5 || math.Abs(p1[d]-p2[d]) < 1e-14 {
			continue
		}
		u := rng.Float64()
		var beta float64
		if u <= 0.5 {
			beta = math.Pow(2*u, 1/(crossoverEta+1))
		} else {
			beta = math.Pow(1/(2*(1-u)), 1/(crossoverEta+1))
		}
		x1, x2 := p1[d], p2[d]
		c1[d] = 0.5 * ((1+beta)*x1 + (1-beta)*x2)
		c2[d] = 0.5 * ((1-beta)*x1 + (1+beta)*x2)
	}
	clip01(c1)
	clip01(c2)
	return c1, c2
}

// polyMutate applies polynomial mutation in place.
func polyMutate(x []float64, rng *rand.Rand) {
	pm := 1 / math.Max(1, float64(len(x)))
	for d := range x {
		if rng.Float64() > pm {
			continue
		}
		u := rng.Float64()
		var delta float64
		if u < 0.5 {
			delta = math.Pow(2*u, 1/(mutationEta+1)) - 1
		} else {
			delta = 1 - math.Pow(2*(1-u), 1/(mutationEta+1))
		}
		x[d] += delta
	}
	clip01(x)
}
