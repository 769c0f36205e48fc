// Package core implements GPTune's Multitask Learning Autotuning engine:
// Algorithm 1 (Bayesian-optimization-based single-objective MLA), Algorithm 2
// (its multi-objective extension), and the incorporation of coarse
// performance models from Section 3.3. The engine records per-phase wall
// times (sampling/objective, modeling, search) so the paper's Table 3
// breakdowns and Fig. 3 scaling study can be regenerated.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/space"
)

// Objective evaluates the application at native task parameters t and native
// tuning configuration x, returning the γ output metrics (all minimized).
// For real HPC codes this launches the application (paper Section 4.2); in
// this reproduction it calls an application simulator.
type Objective func(task, x []float64) ([]float64, error)

// PerfModel is a coarse analytical performance model ỹ(t, x) with its own
// tunable coefficients (Section 3.3). Model outputs are appended to the
// tuning-parameter vector as extra kernel features, enriching the LCM input
// space from β to β+γ̃ dimensions, and with Options.FitModelCoeffs the
// coefficients are re-fitted from observed samples before each modeling
// phase ("performance model update phase": Nelder–Mead on the squared error
// of the first model output against the first objective).
type PerfModel struct {
	// Dim is γ̃, the number of model outputs per evaluation.
	Dim int
	// Coeffs holds the model's hyperparameters (e.g. t_flop, t_msg, t_vol in
	// Eq. 7). May be empty for coefficient-free models.
	Coeffs []float64
	// Eval returns the γ̃ model outputs for native task t and native config x.
	Eval func(task, x, coeffs []float64) []float64
}

// Problem is a complete GPTune tuning problem: the three spaces of Section 2
// plus the black-box objective and an optional performance model.
type Problem struct {
	Name    string
	Tasks   *space.Space       // IS: task parameter input space
	Tuning  *space.Space       // PS: tuning parameter space
	Outputs *space.OutputSpace // OS: output space (γ objectives)

	Objective Objective
	Model     *PerfModel // optional (Section 3.3)
}

// Validate reports structural problems in the problem definition.
func (p *Problem) Validate() error {
	if err := p.validateForEngine(); err != nil {
		return err
	}
	if p.Objective == nil {
		return errors.New("core: problem needs an objective")
	}
	return nil
}

// validateForEngine is Validate minus the Objective requirement: an
// ask/tell Engine's evaluations are performed by the caller (for example
// gptuned's HTTP clients), so no in-process objective is needed.
func (p *Problem) validateForEngine() error {
	if p.Tasks == nil || p.Tuning == nil {
		return errors.New("core: problem needs task and tuning spaces")
	}
	if p.Outputs == nil || p.Outputs.Dim() == 0 {
		return errors.New("core: problem needs at least one output")
	}
	if p.Model != nil {
		if p.Model.Dim <= 0 || p.Model.Eval == nil {
			return errors.New("core: performance model needs Dim > 0 and Eval")
		}
	}
	return nil
}

// CheckTasks reports a native task vector the problem cannot take: one whose
// length is not the task space's dimension, or that holds a non-finite value.
// NewEngine calls it, so a malformed task is refused up front instead of
// panicking in the objective or on the generation goroutine.
func (p *Problem) CheckTasks(tasks [][]float64) error {
	for i, t := range tasks {
		if len(t) != p.Tasks.Dim() {
			return fmt.Errorf("core: task %d has %d values, the task space has %d parameters", i, len(t), p.Tasks.Dim())
		}
		for d, v := range t {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: task %d parameter %q is non-finite (%v)", i, p.Tasks.Params[d].Name, v)
			}
		}
	}
	return nil
}

// Evaluate runs the objective once at native task t and configuration x and
// validates the outputs: the wrong count or a non-finite value is an error.
// Every tuner evaluates through it — MLA's worker loop and the baselines'
// tuners.Loop alike.
func (p *Problem) Evaluate(task, x []float64) ([]float64, error) {
	y, err := p.Objective(task, x)
	if err != nil {
		return nil, err
	}
	if err := p.checkOutputs(y); err != nil {
		return nil, err
	}
	return y, nil
}

// MinOfRepeats returns p with every evaluation replaced by the componentwise
// minimum of r consecutive runs of its objective: the paper runs PDGEQRF and
// PDSYEVX three times and keeps the minimum to cope with runtime noise.
// Wrapping the problem rather than configuring a tuner means every tuner in a
// comparison measures a configuration the same way. Each run is validated as
// Evaluate validates one, so a non-finite output on any repeat is an error.
// r ≤ 1, or a problem without an objective, returns p itself.
func MinOfRepeats(p *Problem, r int) *Problem {
	if r <= 1 || p.Objective == nil {
		return p
	}
	q := *p
	q.Objective = func(task, x []float64) ([]float64, error) {
		var best []float64
		for i := 0; i < r; i++ {
			y, err := p.Evaluate(task, x)
			if err != nil {
				return nil, err
			}
			if best == nil {
				best = append([]float64(nil), y...)
				continue
			}
			for s := range y {
				if y[s] < best[s] {
					best[s] = y[s]
				}
			}
		}
		return best, nil
	}
	return &q
}

// checkOutputs validates one objective evaluation result.
func (p *Problem) checkOutputs(y []float64) error {
	if len(y) != p.Outputs.Dim() {
		return fmt.Errorf("core: objective returned %d outputs, want %d", len(y), p.Outputs.Dim())
	}
	for s, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: objective output %d is non-finite (%v)", s, v)
		}
	}
	return nil
}
