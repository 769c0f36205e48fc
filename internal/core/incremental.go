package core

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/surrogate"
)

// modelState is the engine's between-generation modeling bookkeeping for
// Options.RefitEvery > 1: the fitted models themselves plus everything that
// must stay frozen for incremental extension to be consistent with them —
// the feature scale and the per-objective log transform decided at the last
// refit, and how many samples per task the models have already absorbed.
type modelState struct {
	models           []surrogate.Model // one per objective, nil until the first refit
	fs               *featureScale     // feature scale frozen at the last refit
	logY             []bool            // per-objective: log transform active at the last refit
	modeledN         []int             // per-task sample counts the models have absorbed
	phasesSinceRefit int
}

// modelPhase produces this generation's surrogate models, one per objective:
// either by extending the previous generation's models with the newly
// observed points (hyperparameters frozen — the cheap path RefitEvery
// buys), or by the canonical full refit. refit reports which path ran so
// the caller can skip the transfer snapshot on incremental generations.
func (st *state) modelPhase(gamma, ms int) (models []surrogate.Model, tvs []func(float64) float64, fs *featureScale, refit bool, err error) {
	if st.canAppend(gamma) {
		if models, tvs, ok := st.appendPhase(gamma); ok {
			return models, tvs, st.mdl.fs, false, nil
		}
	}
	models, tvs, fs, err = st.refitPhase(gamma, ms)
	return models, tvs, fs, true, err
}

// refitPhase is the canonical modeling phase: one full hyperparameter fit
// per objective over all data. With RefitEvery ≤ 1 this is the only path and
// is call-for-call identical to the historical behavior (same seeds, same
// warm-start source), which the RefitEvery=1 bitwise-parity test pins.
func (st *state) refitPhase(gamma, ms int) ([]surrogate.Model, []func(float64) float64, *featureScale, error) {
	fs := st.buildFeatureScale()
	models := make([]surrogate.Model, gamma)
	tvs := make([]func(float64) float64, gamma)
	logY := make([]bool, gamma)
	for s := 0; s < gamma; s++ {
		logY[s] = st.logApplied(s)
		data := st.buildDataset(s, fs, logY[s], nil)
		model, err := st.fitter.Fit(data, surrogate.FitOptions{
			Q:         st.opts.Q,
			NumStarts: st.opts.NumStarts,
			Workers:   st.opts.Workers,
			MaxIter:   st.opts.ModelMaxIter,
			Seed:      rng.Mix(st.opts.Seed, rng.Fit, uint64(ms), uint64(s)),
			WarmStart: st.refitWarmStart(s),
			Inducing:  st.opts.Inducing,
		})
		if err != nil {
			if gamma > 1 {
				return nil, nil, nil, fmt.Errorf("core: modeling phase (objective %d): %w", s, err)
			}
			return nil, nil, nil, fmt.Errorf("core: modeling phase: %w", err)
		}
		models[s] = model
		tvs[s] = yTransform(logY[s])
	}
	if st.opts.RefitEvery > 1 {
		counts := make([]int, len(st.X))
		for i := range st.X {
			counts[i] = len(st.X[i])
		}
		st.mdl = modelState{models: models, fs: fs, logY: logY, modeledN: counts}
	}
	return models, tvs, fs, nil
}

// refitWarmStart picks the hyperparameter warm start for objective s: the
// in-run model from the previous refit cycle when RefitEvery keeps one
// around (the freshest optimum available), falling back to the cross-session
// Options.WarmStart model. With RefitEvery ≤ 1 only the fallback exists,
// preserving the historical fit inputs exactly.
func (st *state) refitWarmStart(s int) surrogate.Model {
	if st.opts.RefitEvery > 1 && s < len(st.mdl.models) && st.mdl.models[s] != nil {
		return st.mdl.models[s]
	}
	return st.warm[s]
}

// canAppend reports whether this generation may extend the previous models
// instead of refitting: RefitEvery demands it, models exist for every
// objective and support incremental extension, the refit cadence hasn't
// come due, and everything frozen at the last refit is still valid.
func (st *state) canAppend(gamma int) bool {
	m := &st.mdl
	if st.opts.RefitEvery <= 1 || len(m.models) != gamma {
		return false
	}
	if m.phasesSinceRefit+1 >= st.opts.RefitEvery {
		return false
	}
	// The Section 3.3 coefficient update moves the performance-model
	// features every generation; frozen feature inputs would silently
	// disagree with the model's training inputs, so coefficient-fitting
	// runs refit unconditionally.
	if st.p.Model != nil && st.opts.FitModelCoeffs && len(st.coeffs) > 0 {
		return false
	}
	for _, model := range m.models {
		if _, ok := model.(surrogate.Incremental); !ok {
			return false
		}
	}
	// A frozen log transform is only consistent while every new observation
	// stays positive; a canonical refit would have switched to identity, so
	// fall back to one.
	for s := 0; s < gamma; s++ {
		if !m.logY[s] {
			continue
		}
		for i := range st.Y {
			for _, y := range st.Y[i][m.modeledN[i]:] {
				if y[s] <= 0 {
					return false
				}
			}
		}
	}
	return true
}

// appendPhase extends each objective's model with the samples observed since
// the models last saw data, at frozen hyperparameters, feature scale and
// output transform. Any append failure discards the models entirely (the
// Incremental contract declares them stale) and reports !ok so modelPhase
// falls back to a full refit — the deterministic recovery path.
func (st *state) appendPhase(gamma int) ([]surrogate.Model, []func(float64) float64, bool) {
	m := &st.mdl
	tvs := make([]func(float64) float64, gamma)
	for s := 0; s < gamma; s++ {
		delta := st.buildDataset(s, m.fs, m.logY[s], m.modeledN)
		if err := m.models[s].(surrogate.Incremental).Append(delta, st.opts.Workers); err != nil {
			st.mdl = modelState{}
			return nil, nil, false
		}
		tvs[s] = yTransform(m.logY[s])
	}
	for i := range st.X {
		m.modeledN[i] = len(st.X[i])
	}
	m.phasesSinceRefit++
	return m.models, tvs, true
}
