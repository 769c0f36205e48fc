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
		// Beyond ±2^53 a float64 bound is not every integer, and int() wraps
		// past ±2^63.
		if !(math.Abs(ps.Lo) <= 1<<53 && math.Abs(ps.Hi) <= 1<<53) {
			return space.Param{}, fmt.Errorf("serve: integer parameter %q: bounds [%g, %g] outside ±2^53", ps.Name, ps.Lo, ps.Hi)
		}
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

// buildSpec turns a spec into the engine's inputs, validating everything a
// client could get wrong; the tasks and options go through the engine's own
// (*core.Problem).CheckTasks and (*core.Options).Validate, so the two layers
// refuse alike.
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
	if err := prob.CheckTasks(s.Tasks); err != nil {
		return nil, nil, zero, fmt.Errorf("serve: study %s: %w", s.Name, err)
	}
	opts := specOptions(s.Options)
	if err := opts.Validate(prob.Outputs.Dim()); err != nil {
		return nil, nil, zero, fmt.Errorf("serve: study %s: %w", s.Name, err)
	}
	return prob, s.Tasks, opts, nil
}

// specOptions maps a spec's options onto the engine's, field for field.
func specOptions(o api.OptionsSpec) core.Options {
	return core.Options{
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
