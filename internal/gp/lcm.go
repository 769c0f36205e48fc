// Package gp implements the surrogate models of the paper's Section 3: the
// Linear Coregionalization Model (LCM) that generalizes Gaussian process
// regression to the multitask setting (Eqs. 1–4), its log-marginal-likelihood
// with analytic gradients, multi-start L-BFGS hyperparameter learning, and
// the posterior prediction equations (Eqs. 5–6).
//
// Single-task GP regression is the δ=1, Q=1 special case of the LCM, exactly
// as "single-task learning" in the paper is GPTune run with one task.
package gp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/la"
	"repro/internal/mpx"
	"repro/internal/opt"
	"repro/internal/rng"
)

// Dataset holds multitask training data: for each task i, the normalized
// tuning-parameter samples X[i] (each of length Dim) and the observed scalar
// outputs Y[i]. Tasks may have different sample counts (MLA grows them one
// at a time).
type Dataset struct {
	Dim int
	X   [][][]float64 // [task][sample][dim]
	Y   [][]float64   // [task][sample]
}

// NumTasks returns δ.
func (d *Dataset) NumTasks() int { return len(d.X) }

// TotalSamples returns Σ_i ε_i.
func (d *Dataset) TotalSamples() int {
	n := 0
	for _, xi := range d.X {
		n += len(xi)
	}
	return n
}

// Validate reports structural problems (mismatched lengths, empty tasks,
// non-finite observations).
func (d *Dataset) Validate() error {
	if len(d.X) == 0 {
		return errors.New("gp: dataset has no tasks")
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("gp: %d task sample sets vs %d output sets", len(d.X), len(d.Y))
	}
	for i := range d.X {
		if len(d.X[i]) == 0 {
			return fmt.Errorf("gp: task %d has no samples", i)
		}
		if len(d.X[i]) != len(d.Y[i]) {
			return fmt.Errorf("gp: task %d: %d samples vs %d outputs", i, len(d.X[i]), len(d.Y[i]))
		}
		for j, x := range d.X[i] {
			if err := checkSample(x, d.Y[i][j], d.Dim); err != nil {
				return fmt.Errorf("gp: task %d sample %d %w", i, j, err)
			}
		}
	}
	return nil
}

// checkSample is the one per-sample validator behind Dataset.Validate and
// AppendObservations (and, through Validate, the surrogate backends' append
// deltas): the fitted dimensionality and finite coordinates and output. The
// error reads as a predicate ("has dim 3, want 2") for the caller to prefix
// with the sample's position.
func checkSample(x []float64, y float64, dim int) error {
	if len(x) != dim {
		return fmt.Errorf("has dim %d, want %d", len(x), dim)
	}
	if !allFinite(x) {
		return errors.New("has non-finite coordinate")
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return errors.New("has non-finite output")
	}
	return nil
}

// LCM is a fitted Linear Coregionalization Model. The covariance between
// sample (i, j) and (i', j') is Eq. (4):
//
//	Σ = Σ_q (a_iq·a_i'q + b_iq·δ_ii') k_q(x, x') + d_i·δ_ii'·δ_jj'
//
// with k_q the unit-variance Gaussian kernel of Eq. (3).
type LCM struct {
	Q        int         // number of latent functions (≤ δ)
	NumTasks int         // δ
	Dim      int         // β (plus performance-model features if enriched)
	Ls       [][]float64 // lengthscales [q][dim]
	A        [][]float64 // mixing coefficients [q][task]
	B        [][]float64 // per-task diagonal boosts [q][task]
	D        []float64   // per-task noise (regularization) [task]
	LogLik   float64     // log marginal likelihood at the fitted state
	FitEvals int         // likelihood evaluations the fit spent, over all starts (0 on a reloaded model)
	Jitter   float64     // diagonal jitter applied during factorization

	// Fitted prediction state. The Cholesky factor lives in packed
	// triangular form so AppendObservations can grow it in place — the
	// incremental exact path behind core.Options.RefitEvery.
	flatX  [][]float64
	taskOf []int
	chol   *la.TriPacked
	alpha  []float64
	yNorm  []float64 // standardized training outputs (for LOO diagnostics)
	yMean  float64
	yStd   float64

	// Prediction fast-path tables built by prepPredict (see predict.go):
	// dimension-major training coordinates, the task-pair coefficient table,
	// per-latent half-inverse-square lengthscales, and the per-task prior
	// variance.
	xT        []float64 // [Dim*n] dimension-major copy of flatX
	coefTab   []float64 // [(ti*T+tj)*Q + q]: coefTable's layout
	predWinv  []float64 // [Q*Dim]: 0.5/l²
	predPrior []float64 // [task]: Σ_q (a²+b) + d
}

// FitOptions configures LCM hyperparameter learning (the paper's modeling
// phase, Section 3.1 step 2 and Section 4.3).
type FitOptions struct {
	Q         int   // latent functions; default min(δ, 3)
	NumStarts int   // L-BFGS random restarts n_start; default 4, at most MaxNumStarts
	Workers   int   // parallel restarts and factorization workers; default 1
	MaxIter   int   // L-BFGS iterations the surviving start may run; default 100, at most MaxFitIter
	Seed      int64 // RNG seed for restarts

	// Init, when non-nil, replaces the random initialization of the first
	// L-BFGS start with the given hyperparameter vector (the Hyperparameters
	// layout of a previously fitted model) — the warm-start hook behind
	// surrogate transfer sessions. A vector whose length does not match the
	// fit's layout, or that contains non-finite values, is ignored, so a
	// snapshot from an incompatible run degrades to a cold start instead of
	// failing. The remaining NumStarts−1 starts stay random and unchanged.
	Init []float64
}

// cholBlock is the block size of every LCM covariance factorization — per
// likelihood evaluation, post-fit and on snapshot reload. It decides the
// summation order, so all three must agree for a reloaded model to predict
// bitwise identically.
const cholBlock = 64

// MaxNumStarts and MaxFitIter bound FitOptions.NumStarts and MaxIter: FitLCM
// refuses a larger request before allocating anything for it, and the
// service refuses a study spec that asks for one. They are far above any
// useful fit (the defaults are 4 and 100) and far below what exhausts memory
// or pins a generation for hours.
const (
	MaxNumStarts = 64
	MaxFitIter   = 10000
)

func (o *FitOptions) defaults(numTasks int) {
	if o.Q <= 0 {
		o.Q = numTasks
		if o.Q > 3 {
			o.Q = 3
		}
	}
	if o.Q > numTasks {
		o.Q = numTasks
	}
	if o.NumStarts <= 0 {
		o.NumStarts = 4
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
}

// hyperparameter vector layout (all in log space except A which is linear):
//
//	[ log l_{q,d} : q ∈ [0,Q), d ∈ [0,Dim) ]
//	[ a_{q,i}     : q ∈ [0,Q), i ∈ [0,δ)   ]
//	[ log b_{q,i} : q ∈ [0,Q), i ∈ [0,δ)   ]
//	[ log d_i     : i ∈ [0,δ)              ]
type hyperLayout struct {
	q, dim, tasks int
}

func (h hyperLayout) total() int        { return h.q*h.dim + 2*h.q*h.tasks + h.tasks }
func (h hyperLayout) lsAt(q, d int) int { return q*h.dim + d }
func (h hyperLayout) aAt(q, i int) int  { return h.q*h.dim + q*h.tasks + i }
func (h hyperLayout) bAt(q, i int) int  { return h.q*h.dim + h.q*h.tasks + q*h.tasks + i }
func (h hyperLayout) dAt(i int) int     { return h.q*h.dim + 2*h.q*h.tasks + i }

// FitLCM learns LCM hyperparameters by maximizing the log marginal
// likelihood from NumStarts L-BFGS starts and returns the best fitted model.
//
// The starts are raced, not all run out: every start runs to iteration
// rung1Iter, the rung1Keep best by current objective value go on to
// rung2Iter, and the rung2Keep best of those to MaxIter (ties go to the
// lower start index, a start whose value is NaN or ±Inf ranks last, and a
// start that stopped on its own competes with its final value). A rung at or
// past MaxIter, or one with nobody to drop, never happens. Racing only decides who continues: a
// survivor's iterates are bit for bit those it would have walked alone to
// MaxIter, so whenever the start that wins an un-raced fit survives both
// rungs the fitted model is that fit's model to the last bit. Each round's
// starts are spread over Workers goroutines (the paper's parallelism over
// random starts) with the leftover workers inside the evaluation, so the
// last survivor factors with all of them; no split changes a bit.
func FitLCM(data *Dataset, options FitOptions) (*LCM, error) {
	if err := data.Validate(); err != nil {
		return nil, err
	}
	numTasks := data.NumTasks()
	options.defaults(numTasks)
	if options.NumStarts > MaxNumStarts || options.MaxIter > MaxFitIter {
		return nil, fmt.Errorf("gp: %d starts × %d iterations asked for, the ceiling is %d × %d", options.NumStarts, options.MaxIter, MaxNumStarts, MaxFitIter)
	}

	// Flatten samples and standardize Y globally (the model's zero-mean
	// prior then matches the data scale).
	n := data.TotalSamples()
	flatX := make([][]float64, 0, n)
	taskOf := make([]int, 0, n)
	flatY := make([]float64, 0, n)
	for i := range data.X {
		for j := range data.X[i] {
			flatX = append(flatX, data.X[i][j])
			taskOf = append(taskOf, i)
			flatY = append(flatY, data.Y[i][j])
		}
	}
	mean, std := meanStd(flatY)
	yn := make([]float64, n)
	for i, v := range flatY {
		yn[i] = (v - mean) / std
	}

	layout := hyperLayout{q: options.Q, dim: data.Dim, tasks: numTasks}
	warm := options.Init
	if len(warm) != layout.total() || !allFinite(warm) {
		warm = nil
	}

	// The per-dimension pairwise squared-difference tensor is computed once
	// and shared read-only by every L-BFGS evaluation of every restart and
	// by the final factorization (Section 4.2 parallelizes hyperparameter
	// learning; the cache is what keeps each evaluation from re-touching
	// the raw coordinates).
	cache := newPairCache(flatX, data.Dim)

	// Each start depends only on its own seed, never on the round, the
	// worker or the engine that advances it.
	runs := make([]*opt.LBFGSRun, options.NumStarts)
	for s := range runs {
		runs[s] = opt.NewLBFGSRun(startPoint(layout, options.Seed, s, warm))
	}
	// One evaluation engine per worker slot, built by the first round (the
	// widest) and reused by the later ones: memory follows Workers, not
	// NumStarts.
	var engines []*lcmEngine
	best := raceStarts(runs, options.MaxIter, func(alive []int, until int) {
		// Split the worker budget: starts first (they are embarrassingly
		// parallel), leftover workers parallelize inside each evaluation
		// once it is large enough to gain from them. The engine's
		// reductions are worker-count independent, so the fitted model is
		// identical for every split.
		startWorkers := options.Workers
		if startWorkers > len(alive) {
			startWorkers = len(alive)
		}
		innerWorkers := options.Workers / startWorkers
		if n < evalParallelMin {
			innerWorkers = 1
		}
		chunk := (len(alive) + startWorkers - 1) / startWorkers
		if engines == nil {
			engines = make([]*lcmEngine, mpx.NumChunks(len(alive), chunk))
		}
		mpx.ParallelChunks(len(alive), chunk, startWorkers, func(c, lo, hi int) {
			if engines[c] == nil {
				engines[c] = newLCMEngine(cache, layout, taskOf, yn, innerWorkers)
			}
			engines[c].workers = innerWorkers
			eval := engines[c].objective()
			for _, s := range alive[lo:hi] {
				runs[s].Advance(eval, until)
			}
		})
	})
	if best < 0 {
		return nil, errors.New("gp: all hyperparameter starts failed")
	}
	model := thetaToModel(runs[best].Result().X, layout)
	model.LogLik = -runs[best].Result().F
	for _, r := range runs {
		model.FitEvals += r.Result().Evals
	}
	model.flatX = flatX
	model.taskOf = taskOf
	model.yNorm = yn
	model.yMean = mean
	model.yStd = std
	// Final factorization for prediction, parallel per Section 4.3, on race
	// engine 0 — its distance cache and buffers are free once the race is
	// over, so the fit never holds more engines than Workers.
	engines[0].workers = options.Workers
	if err := model.factorize(engines[0]); err != nil {
		return nil, fmt.Errorf("gp: final covariance factorization: %w", err)
	}
	return model, nil
}

// factorize is the one post-fit step, shared by FitLCM and UnmarshalBinary:
// from the hyperparameters, the training state (flatX, taskOf, yNorm) and any
// jitter already recorded, it assembles Σ through the fused engine path,
// factors it — escalating the jitter further only if it must — and builds
// alpha and the prediction tables. Both callers therefore run the same
// summation orders, which is what makes a reloaded model predict bitwise
// identically. eng must be an engine over m's training state (FitLCM's
// race engine 0, or UnmarshalBinary's own); its workers never change a bit.
func (m *LCM) factorize(eng *lcmEngine) error {
	eng.prepare(m)
	sigma := eng.assembleSigma(m)
	n := sigma.Rows
	if m.Jitter > 0 {
		for i := 0; i < n; i++ {
			sigma.Data[i*n+i] += m.Jitter
		}
	}
	l := eng.cholInv
	extra, err := la.CholeskyJitterInto(l, sigma, 0, cholBlock, eng.workers)
	if err != nil {
		return err
	}
	m.Jitter += extra
	m.chol = la.PackChol(l)
	m.alpha = la.SolveCholVec(l, m.yNorm)
	m.prepPredict()
	return nil
}

// OutputStats returns the output standardization (mean, std) the fit froze:
// predictions are de-standardized with these, and consumers layering their
// own posterior algebra on the fitted hyperparameters (the sparse-GP
// backend) must normalize outputs identically.
func (m *LCM) OutputStats() (mean, std float64) { return m.yMean, m.yStd }

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func meanStd(y []float64) (mean, std float64) {
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	for _, v := range y {
		std += (v - mean) * (v - mean)
	}
	std = math.Sqrt(std / float64(len(y)))
	if std < 1e-12 {
		std = 1
	}
	return mean, std
}

// startPoint is where start s of a fit seeded with seed begins: a random
// draw from the start's own stream, or, for start 0 of a warm-started fit,
// the warm vector.
func startPoint(layout hyperLayout, seed int64, s int, warm []float64) []float64 {
	if s == 0 && warm != nil {
		return warm
	}
	return randomInit(layout, rng.New(seed, rng.Start, uint64(s)))
}

func randomInit(layout hyperLayout, rng *rand.Rand) []float64 {
	theta := make([]float64, layout.total())
	for q := 0; q < layout.q; q++ {
		for d := 0; d < layout.dim; d++ {
			// lengthscale ∈ ~[0.1, 1]
			theta[layout.lsAt(q, d)] = math.Log(0.1 + 0.9*rng.Float64())
		}
		for i := 0; i < layout.tasks; i++ {
			theta[layout.aAt(q, i)] = rng.NormFloat64()
			theta[layout.bAt(q, i)] = math.Log(0.01 + 0.1*rng.Float64())
		}
	}
	for i := 0; i < layout.tasks; i++ {
		theta[layout.dAt(i)] = math.Log(1e-3 + 1e-2*rng.Float64())
	}
	return theta
}

func thetaToModel(theta []float64, layout hyperLayout) *LCM {
	m := newModel(layout)
	m.setTheta(theta, layout)
	return m
}

// newModel returns a model of layout's shape with zeroed hyperparameters.
func newModel(layout hyperLayout) *LCM {
	m := &LCM{
		Q:        layout.q,
		NumTasks: layout.tasks,
		Dim:      layout.dim,
		Ls:       make([][]float64, layout.q),
		A:        make([][]float64, layout.q),
		B:        make([][]float64, layout.q),
		D:        make([]float64, layout.tasks),
	}
	for q := 0; q < layout.q; q++ {
		m.Ls[q] = make([]float64, layout.dim)
		m.A[q] = make([]float64, layout.tasks)
		m.B[q] = make([]float64, layout.tasks)
	}
	return m
}

// setTheta overwrites m's hyperparameters with the optimization vector theta
// (the hyperLayout layout: log-space except A). m must have layout's shape.
func (m *LCM) setTheta(theta []float64, layout hyperLayout) {
	for q := 0; q < layout.q; q++ {
		for d := 0; d < layout.dim; d++ {
			m.Ls[q][d] = la.Exp(theta[layout.lsAt(q, d)])
		}
		for i := 0; i < layout.tasks; i++ {
			m.A[q][i] = theta[layout.aAt(q, i)]
			m.B[q][i] = la.Exp(theta[layout.bAt(q, i)])
		}
	}
	for i := 0; i < layout.tasks; i++ {
		m.D[i] = la.Exp(theta[layout.dAt(i)])
	}
}

// coef is the Eq. (4) task coefficient of latent q between tasks i and j:
// a_qi·a_qj + b_qi·δ_ij. Every covariance the package assembles reads it
// from here, through coefTable or, for the prior variance, directly.
func (m *LCM) coef(q, i, j int) float64 {
	c := m.A[q][i] * m.A[q][j]
	if i == j {
		c += m.B[q][i]
	}
	return c
}

// coefTable fills dst, T·T·Q long, with every task pair's coefficients,
// latents contiguous per pair: dst[(i·T+j)·Q+q] = coef(q, i, j). It is the
// one table layout — the engine's per-evaluation table and the fitted
// model's coefTab, which serves k* and therefore the append path.
func (m *LCM) coefTable(dst []float64) {
	T, Q := m.NumTasks, m.Q
	for i := 0; i < T; i++ {
		for j := 0; j < T; j++ {
			for q := 0; q < Q; q++ {
				dst[(i*T+j)*Q+q] = m.coef(q, i, j)
			}
		}
	}
}

// Predict returns the posterior mean and variance (Eqs. 5–6) of task i's
// objective at normalized point x, in the original (de-standardized) units.
// It is PredictInto over a throwaway workspace, for callers that predict a
// handful of points; search loops hold a workspace and call PredictInto.
func (m *LCM) Predict(task int, x []float64) (mean, variance float64) {
	return m.PredictInto(m.NewPredictWorkspace(), task, x)
}
