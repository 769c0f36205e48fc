// Package serve implements gptuned, the ask/tell tuning service: studies
// are created over HTTP, clients ask for configurations to evaluate
// (suggest) and report measurements back (report), and the server runs the
// GPTune MLA machinery through the step-wise core.Engine. Every observation
// is appended to the study's write-ahead log the moment it commits, so a
// killed server resumes all studies through the crash-safe replay path — a
// restarted study re-derives its decisions deterministically and pays at
// most the evaluations that were in flight when the process died.
package serve

import (
	"fmt"
	"math"
	"strings"

	"repro/gptune/api"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/space"
	"repro/internal/surrogate"
)

// buildParam turns one wire parameter into a validated space.Param.
func buildParam(ps api.ParamSpec) (space.Param, error) {
	switch ps.Kind {
	case "real":
		p := space.NewReal(ps.Name, ps.Lo, ps.Hi)
		p.LogScale = ps.Log
		return p, p.Validate()
	case "integer":
		p := space.NewInteger(ps.Name, int(ps.Lo), int(ps.Hi))
		p.LogScale = ps.Log
		return p, p.Validate()
	case "categorical":
		p := space.NewCategorical(ps.Name, ps.Categories...)
		return p, p.Validate()
	}
	return space.Param{}, fmt.Errorf("serve: parameter %q has unknown kind %q (want real, integer or categorical)", ps.Name, ps.Kind)
}

// buildSpace turns a wire parameter list into a validated space.
func buildSpace(specs []api.ParamSpec) (*space.Space, error) {
	params := make([]space.Param, len(specs))
	for i, ps := range specs {
		p, err := buildParam(ps)
		if err != nil {
			return nil, err
		}
		params[i] = p
	}
	return space.New(params...)
}

// validName reports whether a study name is safe to use as a file stem.
func validName(name string) bool {
	if name == "" || len(name) > 128 || strings.HasPrefix(name, ".") {
		return false
	}
	for _, r := range name {
		ok := r == '-' || r == '_' || r == '.' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}

// The ceilings on a study's evaluation and search budgets, far above anything
// the tree asks for (benchmark studies run at most 40 evaluations per task,
// NSGA-II defaults to a population of 40 over 40 generations). The fit's own
// budget has its ceilings in surrogate (MaxNumStarts, MaxFitIter).
const (
	maxEpsTot = 10_000 // eps_tot: evaluations per task
	maxBatch  = 1_000  // batch_evals and mo_batch: configurations per search
	maxNSGA   = 1_000  // mo_pop_size and mo_generations
)

// buildSpec turns a spec into the engine's inputs, validating everything a
// client could get wrong.
func buildSpec(s *api.StudySpec) (*core.Problem, [][]float64, core.Options, error) {
	var zero core.Options
	if !validName(s.Name) {
		return nil, nil, zero, fmt.Errorf("serve: study name %q invalid (letters, digits, '.', '_', '-'; no leading dot)", s.Name)
	}
	if len(s.Tasks) == 0 {
		return nil, nil, zero, fmt.Errorf("serve: study %s has no tasks", s.Name)
	}
	if _, err := surrogate.New(s.Options.Surrogate); err != nil {
		return nil, nil, zero, fmt.Errorf("serve: study %s: %w", s.Name, err)
	}
	var prob *core.Problem
	var err error
	if s.Scenario != "" {
		prob, err = scenarioProblem(s)
	} else {
		prob, err = describedProblem(s)
	}
	if err != nil {
		return nil, nil, zero, err
	}
	dim := prob.Tasks.Dim()
	for i, t := range s.Tasks {
		if len(t) != dim {
			return nil, nil, zero, fmt.Errorf("serve: study %s task %d has %d values, task space has %d parameters", s.Name, i, len(t), dim)
		}
		for _, v := range t {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, zero, fmt.Errorf("serve: study %s task %d has a non-finite value", s.Name, i)
			}
		}
	}
	o := s.Options
	// Each reaches the engine as an allocation size or a loop bound run on the
	// generation goroutine while it holds the model gate; unchecked, one spec
	// could take the replica down or pin that goroutine for good.
	for _, b := range []struct {
		option       string
		value, limit int
	}{
		{"num_starts", o.NumStarts, surrogate.MaxNumStarts},
		{"model_max_iter", o.ModelMaxIter, surrogate.MaxFitIter},
		{"eps_tot", o.EpsTot, maxEpsTot},
		{"batch_evals", o.BatchEvals, maxBatch},
		{"mo_batch", o.MOBatch, maxBatch},
		{"mo_pop_size", o.MOPopSize, maxNSGA},
		{"mo_generations", o.MOGenerations, maxNSGA},
	} {
		if b.value > b.limit {
			return nil, nil, zero, fmt.Errorf("serve: study %s: %s %d exceeds the ceiling of %d", s.Name, b.option, b.value, b.limit)
		}
	}
	opts := core.Options{
		EpsTot:        o.EpsTot,
		InitFraction:  o.InitFraction,
		Workers:       o.Workers,
		LogY:          o.LogY,
		Q:             o.Q,
		NumStarts:     o.NumStarts,
		ModelMaxIter:  o.ModelMaxIter,
		Acquisition:   o.Acquisition,
		LCBKappa:      o.LCBKappa,
		BatchEvals:    o.BatchEvals,
		MOBatch:       o.MOBatch,
		MOGenerations: o.MOGenerations,
		MOPopSize:     o.MOPopSize,
		Seed:          o.Seed,
		Surrogate:     o.Surrogate,
		RefitEvery:    o.RefitEvery,
		Inducing:      o.Inducing,
	}
	return prob, s.Tasks, opts, nil
}

// scenarioProblem instantiates the study's spaces from the workload
// registry. This is the only path by which an HTTP-created study gets a
// constrained tuning space: the scenario's space.Constraint predicates ride
// along with the Problem, so the engine's feasible sampling and search apply
// exactly as they do in-process.
func scenarioProblem(s *api.StudySpec) (*core.Problem, error) {
	if len(s.Tuning) > 0 || len(s.TaskParams) > 0 || len(s.Outputs) > 0 {
		return nil, fmt.Errorf("serve: study %s: scenario %q supplies the task/tuning/output spaces; drop tuning, task_params and outputs", s.Name, s.Scenario)
	}
	sc, err := bench.Get(s.Scenario)
	if err != nil {
		return nil, fmt.Errorf("serve: study %s: %w", s.Name, err)
	}
	prob, err := sc.Problem(bench.Params(s.ScenarioParams))
	if err != nil {
		return nil, fmt.Errorf("serve: study %s: %w", s.Name, err)
	}
	prob.Name = s.Name
	prob.Objective = nil // evaluations arrive over HTTP
	prob.Model = nil     // performance models need the in-process objective
	return prob, nil
}

// describedProblem builds the spaces from the spec's own ParamSpec lists
// (the original, registry-free creation path).
func describedProblem(s *api.StudySpec) (*core.Problem, error) {
	if len(s.Tuning) == 0 {
		return nil, fmt.Errorf("serve: study %s has no tuning parameters", s.Name)
	}
	if len(s.Outputs) == 0 {
		return nil, fmt.Errorf("serve: study %s has no outputs", s.Name)
	}
	tuning, err := buildSpace(s.Tuning)
	if err != nil {
		return nil, fmt.Errorf("serve: study %s tuning: %w", s.Name, err)
	}
	tasks, err := taskSpace(s)
	if err != nil {
		return nil, err
	}
	return &core.Problem{
		Name:    s.Name,
		Tasks:   tasks,
		Tuning:  tuning,
		Outputs: space.NewOutputSpace(s.Outputs...),
		// No Objective: evaluations arrive over HTTP.
	}, nil
}

// taskSpace builds the IS from the spec, synthesizing unconstrained real
// parameters spanning the supplied task vectors when the client omitted
// task_params (the engine never samples the task space; it only validates).
func taskSpace(s *api.StudySpec) (*space.Space, error) {
	if len(s.TaskParams) > 0 {
		sp, err := buildSpace(s.TaskParams)
		if err != nil {
			return nil, fmt.Errorf("serve: study %s task_params: %w", s.Name, err)
		}
		return sp, nil
	}
	dim := len(s.Tasks[0])
	if dim == 0 {
		return nil, fmt.Errorf("serve: study %s has empty task vectors", s.Name)
	}
	params := make([]space.Param, dim)
	for d := 0; d < dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, t := range s.Tasks {
			if d < len(t) {
				lo = math.Min(lo, t[d])
				hi = math.Max(hi, t[d])
			}
		}
		if !(lo <= hi) {
			lo, hi = 0, 0
		}
		params[d] = space.NewReal(fmt.Sprintf("t%d", d), lo, hi)
	}
	sp, err := space.New(params...)
	if err != nil {
		return nil, fmt.Errorf("serve: study %s task space: %w", s.Name, err)
	}
	return sp, nil
}
