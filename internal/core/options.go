package core

import (
	"fmt"
	"time"

	"repro/internal/acq"
	"repro/internal/mpx"
	"repro/internal/opt"
	"repro/internal/surrogate"
)

// Options configures an MLA run.
type Options struct {
	// EpsTot is ε_tot, the total number of function evaluations per task.
	// The initial sampling phase uses ε_tot/2 of them (Section 3.1).
	EpsTot int
	// InitFraction overrides the fraction of ε_tot used for initial
	// sampling (default 0.5, the paper's choice).
	InitFraction float64
	// Workers bounds the goroutine parallelism for objective evaluations,
	// modeling-phase multi-starts / covariance factorization, and per-task
	// search (Section 4). Default 1.
	Workers int
	// LogY models log(y) instead of y when all observations are positive,
	// which suits runtime-like objectives spanning orders of magnitude.
	LogY bool

	// Surrogate selects the performance-model backend for the modeling
	// phase: "lcm" (the paper's multitask LCM, the default), "gp-indep"
	// (independent single-task GPs — the multitask ablation), "sgp"
	// (sparse inducing-point GPs for large histories), or "rf" (per-task
	// random forests, the SuRF-style baseline). surrogate.Kinds() is the
	// authoritative list; unknown names fail NewEngine/Run up front. See
	// internal/surrogate.
	Surrogate string
	// RefitEvery controls how often the modeling phase relearns surrogate
	// hyperparameters from scratch. With the default (0 or 1) every
	// generation refits — the canonical Algorithm 1/2 behavior, bitwise
	// unchanged. With k > 1 only every k-th generation refits (warm-started
	// from the previous refit's snapshot); the generations between extend
	// the existing model with the newly observed points at frozen
	// hyperparameters (a rank-k Cholesky extension for the GP backends,
	// sufficient-statistic updates for "sgp"), cutting per-generation
	// modeling from O(n³) to O(k·n²). Backends without incremental support ("rf") refit every
	// generation regardless. Incremental generations reuse the feature
	// scale and log transform frozen at the last refit; if a frozen log
	// transform turns invalid (a new observation ≤ 0) or an append fails,
	// that generation falls back to a full refit.
	RefitEvery int
	// Inducing bounds the "sgp" backend's per-task inducing set (default
	// 128; other backends ignore it). See internal/surrogate.
	Inducing int
	// Q is the number of LCM latent functions (default min(δ, 3)).
	Q int
	// NumStarts is n_start, the modeling phase's L-BFGS restarts, and
	// ModelMaxIter the iteration cap per restart. Zero means the surrogate
	// backend's default (4 and gp's defaultMaxIter, 50, for the GP
	// backends, see gp.FitOptions); the GP backends refuse more than
	// surrogate.MaxNumStarts starts or surrogate.MaxFitIter iterations. The
	// starts are raced (gp.FitLCM): all run to iteration 10, the best two to
	// 40, the best one to the cap.
	NumStarts    int
	ModelMaxIter int
	// WarmStart supplies fitted-model snapshots from an earlier tuning
	// session (loaded from its checkpoint log — see the gptune facade's
	// LoadModelSnapshots). Each modeling-phase fit for objective s is seeded
	// with the last snapshot whose Kind matches Options.Surrogate and whose
	// Objective is s; GP backends start their first optimizer restart at the
	// snapshot's hyperparameters. WarmStart is a static input, read-only for
	// the whole run — the engine never feeds its own snapshots back into it,
	// which keeps crash-resumed runs bitwise identical to uninterrupted ones.
	// NewEngine decodes each snapshot it will use once, through
	// surrogate.WarmStart, into hyperparameter vectors; nothing builds a
	// model from one. A snapshot that does not decode (corrupt, or of a
	// shape the backend refuses) silently degrades to a cold start, as does
	// one of another problem's shape at fit time. A backend whose fit reads
	// no warm start ("rf"; see surrogate.ReadsWarmStart) decodes nothing.
	// Under RefitEvery > 1 each refit after the first starts instead from
	// the previous refit's own snapshot, decoded the same way.
	WarmStart []ModelSnapshot

	// Search configures the per-task PSO maximizing the acquisition. Its
	// Seeds are points of the normalized tuning space: NewEngine rejects one
	// whose length is not the tuning dimension or that is not finite.
	Search opt.PSOParams
	// Acquisition selects the search-phase acquisition function: "ei"
	// (Expected Improvement, the paper's choice and the default), "lcb"
	// (lower confidence bound), or "pi" (probability of improvement).
	// Algorithm 2 maximizes EI only, so a multi-objective problem takes "ei"
	// alone; NewEngine refuses anything else (Validate).
	Acquisition string
	// LCBKappa is the exploration weight for Acquisition "lcb" (default 2).
	LCBKappa float64
	// BatchEvals asks the single-objective search phase for this many
	// configurations per task per iteration, chosen by distance-penalized
	// acquisition so they spread out; all are evaluated concurrently
	// (the paper's Section 4.2 "multiple function evaluations
	// concurrently"). Default 1.
	BatchEvals int
	// Prior seeds the dataset with already-evaluated samples (e.g. from the
	// history database) before the first modeling phase. Every sample must
	// have finite tuning values and outputs of the problem's shapes
	// (NewEngine refuses the options otherwise); samples whose Task does not
	// exactly match one of the run's tasks are then ignored. Prior samples do
	// not count against EpsTot.
	Prior []PriorSample
	// MOBatch is k, the number of configurations per multi-objective search
	// iteration (Algorithm 2; default 1).
	MOBatch int
	// MOGenerations and MOPopSize configure the NSGA-II search (defaults
	// 40, 40).
	MOGenerations int
	MOPopSize     int

	// Seed makes runs reproducible.
	Seed int64

	// ModelGate, when non-nil, bounds how many modeling/search generation
	// phases run at once across every Engine sharing the gate. The tuning
	// service hands all studies one gate so concurrent studies cannot
	// oversubscribe the machine; each engine still parallelizes internally
	// over its own Workers once it holds a slot. Tuning results never
	// depend on the gate — it only delays generation.
	ModelGate *mpx.Gate

	// Checkpoint, when non-nil, receives every completed objective
	// evaluation as it lands (mid-batch, in a scheduling-independent
	// order), making the run crash-safe: a WAL-backed Checkpointer
	// (NewCheckpoint/Resume) persists each evaluation durably and, on
	// resume, replays the log so the run continues where it was killed
	// without re-paying logged evaluations. A hook error aborts the run. A
	// checkpoint that also has a SaveModel(ModelSnapshot) error method, as
	// Checkpointer does, receives a snapshot of every refit surrogate (one
	// per objective) for later sessions' WarmStart, when the backend's fit
	// reads one (not "rf"); a save error aborts the run too.
	Checkpoint Checkpoint

	// Clock overrides the wall clock behind PhaseStats (useful for tests
	// and simulation). nil means the real clock. Tuning results never read
	// it — it feeds only the timing telemetry, which is why it is the one
	// sanctioned wall-clock touchpoint in this package (gptlint R2).
	Clock func() time.Time

	// FitModelCoeffs enables the Section 3.3 "performance model update
	// phase": before each modeling phase, the model coefficients are
	// re-fitted against observed data. Requires Problem.Model.
	FitModelCoeffs bool

	// fitterOverride substitutes the surrogate backend directly, bypassing
	// the registry. Test-only seam: the latency tests inject a deliberately
	// slow fitter to prove Suggest stays off the modeling path.
	fitterOverride surrogate.Fitter
}

// PriorSample is one pre-existing evaluation used to warm-start MLA.
type PriorSample struct {
	Task []float64
	X    []float64
	Y    []float64 // γ outputs
}

// ModelSnapshot is one fitted surrogate in serialized form: which backend
// produced it, which objective it modeled, and the backend's MarshalBinary
// payload. Snapshots flow out of a run through its checkpoint
// (Options.Checkpoint, when it has SaveModel) and into a later run through
// Options.WarmStart.
type ModelSnapshot struct {
	Kind      string // surrogate backend (one of surrogate.Kinds())
	Objective int    // objective index the model was fitted for
	Data      []byte // backend-specific serialized model
}

// The ceilings on a run's evaluation and search budgets, far above anything
// the tree asks for (benchmark studies run at most 40 evaluations per task,
// NSGA-II defaults to a population of 40 over 40 generations). The fit's own
// budget has its ceilings in surrogate (MaxNumStarts, MaxFitIter).
const (
	maxEpsTot = 10_000 // EpsTot: evaluations per task
	maxBatch  = 1_000  // BatchEvals and MOBatch: configurations per search
	maxNSGA   = 1_000  // MOPopSize and MOGenerations
)

// Validate reports options the engine refuses on a problem with the given
// number of objectives: an acquisition it cannot honour (a name other than
// "", "ei", "lcb" and "pi", or anything but EI with more than one
// objective), or a budget past its ceiling. Each budget reaches the
// generation goroutine as an allocation size or a loop bound, so one
// unchecked value could exhaust memory or pin that goroutine for good. A
// budget is named by its study-spec spelling (gptune/api's OptionsSpec), the
// one the service's clients see. NewEngine calls Validate.
func (o *Options) Validate(objectives int) error {
	switch {
	case o.Acquisition == "" || o.Acquisition == "ei":
	case o.Acquisition != "lcb" && o.Acquisition != "pi":
		return fmt.Errorf("core: unknown acquisition %q (want ei, lcb or pi)", o.Acquisition)
	case objectives > 1:
		return fmt.Errorf("core: acquisition %q on %d objectives: the multi-objective search maximizes EI only", o.Acquisition, objectives)
	}
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
			return fmt.Errorf("core: %s %d exceeds the ceiling of %d", b.option, b.value, b.limit)
		}
	}
	return nil
}

func (o *Options) defaults() {
	if o.Acquisition == "" {
		o.Acquisition = "ei"
	}
	if o.LCBKappa <= 0 {
		o.LCBKappa = 2
	}
	if o.BatchEvals <= 0 {
		o.BatchEvals = 1
	}
	if o.EpsTot <= 1 {
		o.EpsTot = 2
	}
	if o.InitFraction <= 0 || o.InitFraction >= 1 {
		o.InitFraction = 0.5
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MOBatch <= 0 {
		o.MOBatch = 1
	}
	if o.MOGenerations <= 0 {
		o.MOGenerations = 40
	}
	if o.MOPopSize <= 0 {
		o.MOPopSize = 40
	}
}

// now reads the injected clock, falling back to the real one. The fallback
// is the single wall-clock read in the numeric core; everything in this
// package times phases through it.
func (o *Options) now() time.Time {
	if o.Clock != nil {
		return o.Clock()
	}
	return time.Now() //gptlint:ignore no-wallclock PhaseStats telemetry only; tuning results never depend on the clock
}

// since is time.Since against the injected clock.
func (o *Options) since(t0 time.Time) time.Duration { return o.now().Sub(t0) }

// PhaseStats records wall time per MLA phase, matching the paper's Table 3
// breakdown ("total, objective, modeling, search").
type PhaseStats struct {
	Objective   time.Duration // application / simulator evaluations
	Modeling    time.Duration // LCM hyperparameter learning + factorization
	Search      time.Duration // acquisition maximization
	ModelUpdate time.Duration // Section 3.3 coefficient fitting
	Total       time.Duration
	// NumEvals counts the evaluations reported to the engine this run, one
	// per configuration: not objective calls (a MinOfRepeats evaluation is
	// one), and not the evaluations a resumed run replays from its log.
	NumEvals int
}

// Add accumulates other into s.
func (s *PhaseStats) Add(other PhaseStats) {
	s.Objective += other.Objective
	s.Modeling += other.Modeling
	s.Search += other.Search
	s.ModelUpdate += other.ModelUpdate
	s.Total += other.Total
	s.NumEvals += other.NumEvals
}

// TaskResult holds everything observed for one task, in evaluation order
// (so best-so-far "anytime performance" traces can be reconstructed, as
// needed by the Table 4 stability metric).
type TaskResult struct {
	Task []float64   // native task parameters
	X    [][]float64 // native configurations, in evaluation order
	Y    [][]float64 // γ outputs per configuration

	BestIdx int // index minimizing objective 0 (single-objective runs)
}

// Best returns the best configuration and outputs for objective 0, or
// nil, nil for a task with no observations yet (Engine.Result mid-study,
// before the first commit).
func (t *TaskResult) Best() (x []float64, y []float64) {
	if len(t.Y) == 0 {
		return nil, nil
	}
	return t.X[t.BestIdx], t.Y[t.BestIdx]
}

// BestTrace returns the best objective-0 value observed after each
// evaluation: trace[j] = min(Y[0..j][0]). An empty task has an empty trace.
func (t *TaskResult) BestTrace() []float64 {
	trace := make([]float64, len(t.Y))
	if len(t.Y) == 0 {
		return trace
	}
	best := t.Y[0][0]
	for j, y := range t.Y {
		if y[0] < best {
			best = y[0]
		}
		trace[j] = best
	}
	return trace
}

// ParetoFront returns the indices of the non-dominated observations (for
// multi-objective runs).
func (t *TaskResult) ParetoFront() []int { return acq.ParetoFilter(t.Y) }

// Result is the outcome of an MLA run across all δ tasks.
type Result struct {
	Tasks []TaskResult
	Stats PhaseStats
}
