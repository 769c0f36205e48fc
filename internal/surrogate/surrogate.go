// Package surrogate abstracts the performance model behind GPTune's MLA
// loop. The engine's modeling phase needs four capabilities — fit a model to
// the multitask history, predict a posterior mean/variance allocation-free
// from concurrent searchers, snapshot a fitted model for later tuning
// sessions, and decode a snapshot into the next fit's warm start — and this
// package narrows them into the Fitter/Model pair and WarmStart so
// internal/core never names a concrete model type again.
//
// Four backends ship (Kinds() is the authoritative list — CLI help and spec
// validation derive from it, never restate it):
//
//   - "lcm" (default): the paper's Linear Coregionalization Model, sharing
//     latent functions across tasks (Section 3.1). Wraps internal/gp
//     unchanged, cache/parallel hot path included.
//   - "gp-indep": the lcm backend run once per task, no cross-task sharing —
//     the natural ablation baseline for measuring what multitask learning buys.
//   - "sgp": per-task sparse GPs (deterministic inducing-point DTC
//     approximation) — O(n·m²) fitting and O(m²) prediction, the backend for
//     histories too large for the exact paths.
//   - "rf": per-task random forests (the SuRF-style baseline of Section 5),
//     strongest when parameters are categorical.
//
// The last three are one per-task container (pertask.go) over a single-task
// model each.
//
// Every backend obeys the repo's determinism contract: fitted models are
// bitwise independent of FitOptions.Workers. A GP backend's snapshot (lcm,
// gp-indep, sgp) is its hyperparameters alone, the same size whatever the
// history's length, and WarmStart decodes it to the vectors the saved model
// would have seeded a fit with, bit for bit. Nothing rebuilds a model from a
// snapshot. A forest is regrown from the data alone, so its snapshot is
// empty and nothing decodes it.
package surrogate

import (
	"fmt"

	"repro/internal/gp"
)

// Dataset is the multitask training set every backend consumes. It is the
// gp package's type by alias so the engine's buildDataset needs no copying,
// but backends are free to reshape it internally.
type Dataset = gp.Dataset

// Workspace is per-goroutine prediction scratch. Callers obtain one from
// Model.NewWorkspace per searcher goroutine and thread it through
// PredictInto; its concrete type is backend-private.
type Workspace any

// Model is a fitted surrogate.
type Model interface {
	// Kind names the backend that fitted this model (one of Kinds()).
	Kind() string
	// NewWorkspace allocates prediction scratch for one goroutine. The
	// returned workspace must not be shared across goroutines.
	NewWorkspace() Workspace
	// PredictInto returns the posterior mean and variance at x for the given
	// task, using ws for scratch. It performs no heap allocation, so PSO and
	// NSGA-II inner loops can call it millions of times.
	PredictInto(ws Workspace, task int, x []float64) (mean, variance float64)
	// PredictBatchInto writes PredictInto's mean and variance at each xs[j]
	// into mean[j] and variance[j], bit for bit what PredictInto returns for
	// that point alone, without allocating. The GP backends share one pass
	// over their factor among four points; the others loop.
	PredictBatchInto(ws Workspace, task int, xs [][]float64, mean, variance []float64)
	// MarshalBinary serializes the model into a self-contained snapshot
	// that WarmStart decodes: the hyperparameters for the GP backends,
	// nothing for forests.
	MarshalBinary() ([]byte, error)
}

// Incremental is the optional Model capability behind core.Options.RefitEvery:
// absorb new observations into the fitted state without re-learning
// hyperparameters (rank-k factor extension for the GP backends, accumulator
// updates for sparse GPs). Backends that cannot extend (forests) simply don't
// implement it and the engine falls back to refitting.
type Incremental interface {
	// Append extends the model with data's samples. data holds ONLY the new
	// samples per task (a task with nothing new has an empty X[i]); its task
	// count and Dim must match the fitted model. workers bounds internal
	// parallelism and never affects the resulting bits; appending a batch in
	// one call or across several calls yields the same model. On error the
	// model must be treated as stale — the caller refits from scratch (which
	// is also the deterministic fallback the engine takes).
	Append(data *Dataset, workers int) error
}

// MaxNumStarts and MaxFitIter are the ceilings on FitOptions.NumStarts and
// MaxIter (gp's, restated here so spec validation never names gp): the GP
// backends return an error past them instead of allocating, and the service
// refuses a study spec that asks for more.
const (
	MaxNumStarts = gp.MaxNumStarts
	MaxFitIter   = gp.MaxFitIter
)

// FitOptions configures a surrogate fit. The zero value of every field means
// "backend default". Fields without meaning for a backend are ignored (Q and
// NumStarts do nothing for forests).
type FitOptions struct {
	Q         int   // latent functions (LCM only); default min(δ, 3)
	NumStarts int   // optimizer restarts (GP backends); default 4, at most MaxNumStarts
	Workers   int   // fit parallelism; never affects the fitted model's bits
	MaxIter   int   // optimizer iteration cap (GP backends); default gp's defaultMaxIter (50), at most MaxFitIter
	Seed      int64 // RNG seed; same seed + same data → bitwise same model
	Inducing  int   // inducing points per task (sgp only); default 128

	// WarmStart, when non-nil, holds hyperparameter vectors in the layout
	// gp.FitOptions.Init takes, as WarmStart(kind, snapshot) decodes them
	// from a model this backend produced earlier: one vector for lcm, one
	// per task for gp-indep and sgp. A GP backend seeds its first optimizer
	// start (task i's: the i-th vector) there; forests ignore it, and
	// ReadsWarmStart says which backends read it. A task without a vector,
	// or a vector of a length the current fit cannot use, silently degrades
	// to a cold start — transfer is best-effort and must never fail a fit.
	// Fit never writes the vectors, so one decode serves every refit.
	WarmStart [][]float64
}

// Fitter fits models of one backend kind.
type Fitter interface {
	// Kind names the backend (one of Kinds()).
	Kind() string
	// Fit trains a model on data. The fitted model is bitwise independent of
	// opts.Workers.
	Fit(data *Dataset, opts FitOptions) (Model, error)
}

// Backend kind names, as accepted by New and reported by Kind.
const (
	KindLCM     = "lcm"
	KindGPIndep = "gp-indep"
	KindSGP     = "sgp"
	KindRF      = "rf"
)

// registry is the single source of truth for backend selection: Kinds(),
// New, ReadsWarmStart and WarmStart walk it, and every external restatement
// of the kind list (CLI -surrogate help, gptuned spec validation errors) is
// built from Kinds(), so registering a backend here is the whole job.
var registry = []backend{
	{KindLCM, lcmFitter{}, decodeLCM},
	{KindGPIndep, perTaskFitter{KindGPIndep, lcmFitter{}}, perTaskDecoder(KindGPIndep, decodeLCMCell)},
	{KindSGP, perTaskFitter{KindSGP, sgpFitter{}}, perTaskDecoder(KindSGP, decodeSGPTask)},
	{KindRF, perTaskFitter{KindRF, rfFitter{}}, nil},
}

type backend struct {
	kind   string
	fitter Fitter
	decode func(snapshot []byte) ([][]float64, error) // nil: Fit reads no FitOptions.WarmStart
}

// lookup returns the named backend's registry entry, nil for an unknown kind.
func lookup(kind string) *backend {
	for i := range registry {
		if registry[i].kind == kind {
			return &registry[i]
		}
	}
	return nil
}

// Kinds lists the available backend names in preference order.
func Kinds() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.kind
	}
	return names
}

// ReadsWarmStart reports whether the named backend's Fit reads
// FitOptions.WarmStart, which is whether WarmStart can decode its snapshots.
// A snapshot of any other backend's model has no reader (a forest is regrown
// from the data alone), so the engine never archives one after a refit.
func ReadsWarmStart(kind string) bool {
	e := lookup(kind)
	return e != nil && e.decode != nil
}

// WarmStart decodes a snapshot of a kind model — MarshalBinary's bytes, or
// a snapshot an earlier build wrote — into FitOptions.WarmStart for the next
// fit of that kind: bit for bit the hyperparameters the saved model would
// have seeded a fit with. It refuses a kind whose fit reads no warm start,
// and a snapshot another backend wrote.
func WarmStart(kind string, snapshot []byte) ([][]float64, error) {
	switch e := lookup(kind); {
	case e == nil:
		return nil, fmt.Errorf("surrogate: unknown kind %q (have %v)", kind, Kinds())
	case e.decode == nil:
		return nil, fmt.Errorf("surrogate: %s fits read no warm start", kind)
	default:
		return e.decode(snapshot)
	}
}

// New returns the Fitter for the named backend. The empty string selects the
// default (the registry's first entry, "lcm"); unknown names are rejected
// with the valid set in the error so flag/spec validation can surface it
// verbatim.
func New(kind string) (Fitter, error) {
	if kind == "" {
		return registry[0].fitter, nil
	}
	if e := lookup(kind); e != nil {
		return e.fitter, nil
	}
	return nil, fmt.Errorf("surrogate: unknown kind %q (have %v)", kind, Kinds())
}
