// Package tuners defines the common single-task tuner interface through
// which GPTune's comparators are invoked (the paper's Section 6.1 notes that
// the GPTune interface can invoke other autotuners as well), the one
// evaluation loop every baseline runs (Loop), and the simplest baselines of
// Section 5: random search and grid search.
//
// OpenTuner- and HpBandSter-style tuners live in the opentuner and
// hpbandster subpackages. The paper runs both separately per task since
// neither supports multitask learning; Tune therefore receives exactly one
// task.
package tuners

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sample"
)

// Tuner tunes one task of a problem under a fixed evaluation budget.
type Tuner interface {
	Name() string
	// Tune evaluates at most epsTot configurations for the given native
	// task and returns them in evaluation order.
	Tune(p *core.Problem, task []float64, epsTot int, seed int64) (*core.TaskResult, error)
}

// maxFailures is how many evaluations in a row may fail before a run gives
// up: core.Engine's three attempts per suggestion, applied to a baseline's
// stream of proposals.
const maxFailures = 3

// Loop is the one evaluation loop behind every baseline; a tuner supplies
// only its proposal code. Loop validates the problem (before the first
// propose call, so the callbacks may assume valid spaces), then until epsTot
// evaluations have succeeded it asks propose for the next feasible native
// configuration (nil: nothing left to try, the run ends early), evaluates it
// through p.Evaluate and tells observe the outcome — y is nil when the evaluation failed;
// observe may itself be nil. A failed evaluation spends the attempt, not
// the budget, but maxFailures in a row end the run with
// core.ErrTerminalFailure wrapping the last cause, so a broken application
// cannot spin a tuner forever. The result lists the successful evaluations
// in order.
func Loop(p *core.Problem, task []float64, epsTot int,
	propose func() ([]float64, error), observe func(x, y []float64)) (*core.TaskResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tr := &core.TaskResult{Task: task, X: make([][]float64, 0, epsTot), Y: make([][]float64, 0, epsTot)}
	failures := 0
	for len(tr.X) < epsTot {
		x, err := propose()
		if err != nil {
			return nil, err
		}
		if x == nil {
			break
		}
		y, err := p.Evaluate(task, x)
		if err != nil {
			failures++
			if failures == maxFailures {
				return nil, fmt.Errorf("%w: %w", core.ErrTerminalFailure, err)
			}
		} else {
			failures = 0
			if len(tr.Y) > 0 && y[0] < tr.Y[tr.BestIdx][0] {
				tr.BestIdx = len(tr.Y)
			}
			tr.X = append(tr.X, x)
			tr.Y = append(tr.Y, y)
		}
		if observe != nil {
			observe(x, y)
		}
	}
	return tr, nil
}

// Random is uniform random search over the feasible tuning space.
type Random struct{}

// Name implements Tuner.
func (Random) Name() string { return "random" }

// Tune implements Tuner.
func (Random) Tune(p *core.Problem, task []float64, epsTot int, seed int64) (*core.TaskResult, error) {
	rng := rand.New(rand.NewSource(seed))
	return Loop(p, task, epsTot, func() ([]float64, error) {
		pts, err := sample.FeasibleUniform(p.Tuning, 1, rng)
		if err != nil {
			return nil, err
		}
		return pts[0], nil
	}, nil)
}

// Grid is coarse grid search: the budget is spread over an axis-aligned
// grid with ⌈epsTot^(1/β)⌉ levels per dimension (Section 5's "grid search",
// intractable in high dimensions — which is the point of the comparison).
type Grid struct{}

// Name implements Tuner.
func (Grid) Name() string { return "grid" }

// Tune implements Tuner.
func (Grid) Tune(p *core.Problem, task []float64, epsTot int, seed int64) (*core.TaskResult, error) {
	// The grid is walked by a mixed-radix counter over its cells, set up on
	// the first proposal (Loop has validated the spaces by then).
	var (
		levels int
		idx    []int
		u      []float64
		done   bool
	)
	tr, err := Loop(p, task, epsTot, func() ([]float64, error) {
		dim := p.Tuning.Dim()
		if idx == nil {
			levels = int(math.Ceil(math.Pow(float64(epsTot), 1/float64(dim))))
			if levels < 2 {
				levels = 2
			}
			idx, u = make([]int, dim), make([]float64, dim)
		}
		for !done {
			for d := range u {
				u[d] = float64(idx[d]) / float64(levels-1)
			}
			nat := p.Tuning.Denormalize(u)
			// Advance the counter; done after the last cell.
			d := 0
			for d < dim {
				idx[d]++
				if idx[d] < levels {
					break
				}
				idx[d] = 0
				d++
			}
			done = d == dim
			if p.Tuning.Feasible(nat) {
				return nat, nil
			}
		}
		return nil, nil
	}, nil)
	if err == nil && len(tr.X) == 0 {
		return nil, errors.New("tuners: grid search found no feasible evaluable point")
	}
	return tr, err
}
