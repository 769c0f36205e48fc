package bench

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/space"
)

// Bounds of the conformance checks.
const (
	verifyTasks           = 2    // task vectors sampled for objective checks
	verifyPoints          = 3    // tuning points evaluated per task
	verifyBoundsSamples   = 256  // unit samples for bounds/round-trip checks
	verifyFeasibleSamples = 2000 // unit samples for the feasible-fraction estimate
	verifyFeasibleFloor   = 0.02 // minimum feasible fraction of a constrained space
	verifySeed            = 7
)

// Verify runs the scenario conformance suite: the problem builds and
// validates; spaces round-trip native points through normalize/denormalize
// and respect their bounds; constrained spaces keep a measured feasible
// fraction above a floor (so rejection sampling cannot silently starve);
// and the objective is deterministic — two independently constructed
// problem instances evaluate the same inputs to bitwise-equal, finite,
// correctly-shaped outputs. (Determinism is defined across fresh instances,
// not repeated calls on one instance: simulators with attempt-counted
// measurement noise legitimately vary across repeats of one configuration.)
// Where the scenario declares a known optimum, no sampled evaluation may
// beat it by more than a small tolerance.
func Verify(s *Scenario) error {
	prob, err := s.Problem(nil)
	if err != nil {
		return err
	}
	if err := prob.Validate(); err != nil {
		return fmt.Errorf("bench: scenario %q: %w", s.Name, err)
	}
	rng := rng.New(verifySeed, rng.Verify)
	for _, sp := range []struct {
		name string
		s    *space.Space
	}{{"task space", prob.Tasks}, {"tuning space", prob.Tuning}} {
		if err := verifySpace(sp.s, rng); err != nil {
			return fmt.Errorf("bench: scenario %q %s: %w", s.Name, sp.name, err)
		}
	}
	return verifyObjective(s, prob, rng)
}

// verifySpace checks bounds, grid round-trips, and the feasible fraction.
func verifySpace(sp *space.Space, rng *rand.Rand) error {
	u := make([]float64, sp.Dim())
	for n := 0; n < verifyBoundsSamples; n++ {
		for d := range u {
			u[d] = rng.Float64()
		}
		if n == 0 {
			for d := range u {
				u[d] = 0
			}
		} else if n == 1 {
			for d := range u {
				u[d] = 1
			}
		}
		nat := sp.Denormalize(u)
		for i, p := range sp.Params {
			if err := checkInDomain(p, nat[i]); err != nil {
				return err
			}
		}
		rt := sp.Denormalize(sp.Normalize(nat))
		for i, p := range sp.Params {
			if err := checkRoundTrip(p, nat[i], rt[i]); err != nil {
				return err
			}
		}
	}
	if len(sp.Constraints) == 0 {
		return nil
	}
	feasible := 0
	for n := 0; n < verifyFeasibleSamples; n++ {
		for d := range u {
			u[d] = rng.Float64()
		}
		if sp.Feasible(sp.Denormalize(u)) {
			feasible++
		}
	}
	frac := float64(feasible) / verifyFeasibleSamples
	if frac < verifyFeasibleFloor {
		return fmt.Errorf("feasible fraction %.4f below floor %.4f (%d/%d samples; rejection sampling would starve)",
			frac, verifyFeasibleFloor, feasible, verifyFeasibleSamples)
	}
	return nil
}

func checkInDomain(p space.Param, v float64) error {
	switch p.Kind {
	case space.Categorical:
		if v != math.Trunc(v) || v < 0 || v >= float64(len(p.Categories)) {
			return fmt.Errorf("parameter %s: denormalized index %v outside 0..%d", p.Name, v, len(p.Categories)-1)
		}
	case space.Integer:
		if v != math.Trunc(v) {
			return fmt.Errorf("parameter %s: denormalized value %v not integral", p.Name, v)
		}
		fallthrough
	default:
		if v < p.Lo || v > p.Hi {
			return fmt.Errorf("parameter %s: denormalized value %v outside [%g, %g]", p.Name, v, p.Lo, p.Hi)
		}
	}
	return nil
}

func checkRoundTrip(p space.Param, v, rt float64) error {
	switch p.Kind {
	case space.Integer, space.Categorical:
		if rt != v {
			return fmt.Errorf("parameter %s: grid value %v round-trips to %v", p.Name, v, rt)
		}
	default:
		tol := 1e-9 * (1 + math.Abs(v))
		if math.Abs(rt-v) > tol {
			return fmt.Errorf("parameter %s: value %v round-trips to %v (|Δ| > %g)", p.Name, v, rt, tol)
		}
	}
	return nil
}

// verifyObjective evaluates the same (task, point) sequence on two fresh
// problem instances and requires bitwise-identical, finite, correctly-sized
// outputs.
func verifyObjective(s *Scenario, prob *core.Problem, rng *rand.Rand) error {
	tasks, err := sample.FeasibleLHS(prob.Tasks, verifyTasks, rng)
	if err != nil {
		return fmt.Errorf("bench: scenario %q: sampling tasks: %w", s.Name, err)
	}
	pts, err := sample.FeasibleLHS(prob.Tuning, verifyPoints, rng)
	if err != nil {
		return fmt.Errorf("bench: scenario %q: sampling tuning points: %w", s.Name, err)
	}
	prob2, err := s.Problem(nil)
	if err != nil {
		return err
	}
	dim := prob.Outputs.Dim()
	run := func(p *core.Problem) ([][]float64, error) {
		out := make([][]float64, 0, len(tasks)*len(pts))
		for _, t := range tasks {
			for _, x := range pts {
				y, err := p.Objective(t, x)
				if err != nil {
					return nil, fmt.Errorf("bench: scenario %q: objective(%v, %v): %w", s.Name, t, x, err)
				}
				if len(y) != dim {
					return nil, fmt.Errorf("bench: scenario %q: objective returned %d outputs, space declares %d", s.Name, len(y), dim)
				}
				for _, v := range y {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						return nil, fmt.Errorf("bench: scenario %q: objective(%v, %v) returned non-finite %v", s.Name, t, x, y)
					}
				}
				out = append(out, y)
			}
		}
		return out, nil
	}
	ys1, err := run(prob)
	if err != nil {
		return err
	}
	ys2, err := run(prob2)
	if err != nil {
		return err
	}
	for i := range ys1 {
		for j := range ys1[i] {
			if math.Float64bits(ys1[i][j]) != math.Float64bits(ys2[i][j]) {
				return fmt.Errorf("bench: scenario %q: objective not construction-deterministic: evaluation %d output %d is %v on one instance, %v on another",
					s.Name, i, j, ys1[i][j], ys2[i][j])
			}
		}
	}
	if s.Optimum == nil {
		return nil
	}
	for ti, t := range tasks {
		opt, ok := s.Optimum(t)
		if !ok {
			continue
		}
		if math.IsNaN(opt) || math.IsInf(opt, 0) {
			return fmt.Errorf("bench: scenario %q: Optimum(%v) is non-finite", s.Name, t)
		}
		// A sampled point must never beat the declared optimum (small
		// tolerance for grid-approximated optima like analytical's).
		tol := 1e-9 + 0.02*math.Max(1, math.Abs(opt))
		for pi := range pts {
			y := ys1[ti*len(pts)+pi][0]
			if y < opt-tol {
				return fmt.Errorf("bench: scenario %q: objective %v at task %v beats the declared optimum %v", s.Name, y, t, opt)
			}
		}
	}
	return nil
}
