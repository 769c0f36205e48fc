// Package sample provides the initial-design samplers used by GPTune's
// sampling phase (paper Section 3.1): Latin Hypercube Sampling (the
// substitute for the lhsmdu dependency) and constraint-respecting rejection
// sampling over a Space.
package sample

import (
	"fmt"
	"math/rand"

	"repro/internal/space"
)

// LatinHypercube draws n points from [0,1]^dim with one point per
// axis-aligned stratum in every dimension: dimension d's values, sorted,
// fall one into each interval [k/n, (k+1)/n).
func LatinHypercube(n, dim int, rng *rand.Rand) [][]float64 {
	if n <= 0 || dim <= 0 {
		return nil
	}
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dim)
	}
	perm := make([]int, n)
	for d := 0; d < dim; d++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i < n; i++ {
			pts[i][d] = (float64(perm[i]) + rng.Float64()) / float64(n)
		}
	}
	return pts
}

// FeasibleLHS draws n feasible native points from s. It starts from a Latin
// hypercube design and tops up the infeasible points' places with
// FeasibleUniform. An error is returned when the feasible region appears
// empty (maxTries consecutive rejections).
func FeasibleLHS(s *space.Space, n int, rng *rand.Rand) ([][]float64, error) {
	out := make([][]float64, 0, n)
	for _, u := range LatinHypercube(n, s.Dim(), rng) {
		if nat := s.Denormalize(u); s.Feasible(nat) {
			out = append(out, nat)
		}
	}
	more, err := FeasibleUniform(s, n-len(out), rng)
	out = append(out, more...)
	if err != nil {
		return nil, fmt.Errorf("sample: could not find %d feasible points (found %d; feasible region may be empty)", n, len(out))
	}
	return out, nil
}

// FeasibleUniform draws n feasible native points by rejection sampling. On
// error it returns the points it found before giving up.
func FeasibleUniform(s *space.Space, n int, rng *rand.Rand) ([][]float64, error) {
	const maxTries = 100000
	out := make([][]float64, 0, n)
	tries := 0
	u := make([]float64, s.Dim())
	for len(out) < n {
		for d := range u {
			u[d] = rng.Float64()
		}
		nat := s.Denormalize(u)
		if s.Feasible(nat) {
			out = append(out, nat)
			tries = 0
			continue
		}
		tries++
		if tries >= maxTries {
			return out, fmt.Errorf("sample: could not find %d feasible points (found %d)", n, len(out))
		}
	}
	return out, nil
}
