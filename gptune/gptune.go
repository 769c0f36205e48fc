// Package gptune is the public API of this Go reproduction of GPTune
// (Liu et al., "GPTune: Multitask Learning for Autotuning Exascale
// Applications", PPoPP 2021): a multitask-learning Bayesian optimization
// autotuner for expensive black-box functions such as HPC application
// runtimes.
//
// A tuning problem is described by three spaces (Section 2 of the paper):
// the task parameter input space IS, the tuning parameter space PS, and the
// output space OS, plus a black-box objective. The tuner runs MLA
// (multitask learning autotuning): an initial Latin-hypercube sampling
// phase, then Bayesian-optimization iterations that share one Linear
// Coregionalization Model across all tasks, maximize Expected Improvement
// with particle swarm optimization per task, and evaluate one new
// configuration per task per iteration. Multi-objective problems (γ > 1)
// use one LCM per objective and NSGA-II search; coarse analytical
// performance models can be attached to enrich the surrogate's features.
//
// The same interface can invoke the comparator autotuners of the paper's
// Section 6.6 (an OpenTuner-style bandit ensemble and an HpBandSter-style
// TPE optimizer) plus random and grid search, for side-by-side evaluations.
//
// Basic use:
//
//	problem := &gptune.Problem{
//	    Tasks:   gptune.NewSpace(gptune.Real("t", 0, 10)),
//	    Tuning:  gptune.NewSpace(gptune.Real("x", 0, 1)),
//	    Outputs: gptune.Outputs("runtime"),
//	    Objective: func(task, x []float64) ([]float64, error) { ... },
//	}
//	result, err := gptune.Tune(problem, [][]float64{{0}, {1}}, gptune.Options{EpsTot: 20})
package gptune

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/histdb"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/space"
	"repro/internal/surrogate"
	"repro/internal/tuners"
	"repro/internal/tuners/hpbandster"
	"repro/internal/tuners/opentuner"
	"repro/internal/tuners/singletask"
	"repro/internal/tuners/surf"
)

// Problem describes a tuning problem (task space, tuning space, outputs,
// objective, optional performance model). See core.Problem.
type Problem = core.Problem

// Options configures an MLA run. See core.Options.
type Options = core.Options

// Result is an MLA run outcome: per-task samples plus phase timing stats.
type Result = core.Result

// TaskResult holds one task's evaluations in order.
type TaskResult = core.TaskResult

// PhaseStats is the per-phase wall-time breakdown (objective, modeling,
// search), as in the paper's Table 3.
type PhaseStats = core.PhaseStats

// PerfModel is a coarse analytical performance model with tunable
// coefficients (paper Section 3.3).
type PerfModel = core.PerfModel

// Space is an ordered set of typed parameters with optional constraints.
type Space = space.Space

// Param declares one parameter of a Space.
type Param = space.Param

// Real declares a continuous parameter on [lo, hi].
func Real(name string, lo, hi float64) Param { return space.NewReal(name, lo, hi) }

// LogReal declares a continuous parameter normalized on a log axis.
func LogReal(name string, lo, hi float64) Param { return space.NewLogReal(name, lo, hi) }

// Integer declares a whole-valued parameter on [lo, hi].
func Integer(name string, lo, hi int) Param { return space.NewInteger(name, lo, hi) }

// LogInteger declares an integer parameter normalized on a log axis.
func LogInteger(name string, lo, hi int) Param { return space.NewLogInteger(name, lo, hi) }

// Categorical declares a discrete choice parameter.
func Categorical(name string, categories ...string) Param {
	return space.NewCategorical(name, categories...)
}

// NewSpace builds a Space, panicking on invalid parameters (use space.New
// for error returns).
func NewSpace(params ...Param) *Space { return space.MustNew(params...) }

// Outputs declares γ minimized objectives.
func Outputs(names ...string) *space.OutputSpace { return space.NewOutputSpace(names...) }

// PSOParams configures the search phase swarm.
type PSOParams = opt.PSOParams

// Tune runs multitask MLA (Algorithm 1 for one output, Algorithm 2 for
// several) on the given native task vectors.
func Tune(p *Problem, tasks [][]float64, options Options) (*Result, error) {
	return core.Run(p, tasks, options)
}

// MinOfRepeats returns p with every evaluation the componentwise minimum of r
// runs of its objective (the paper runs PDGEQRF and PDSYEVX three times to
// cope with runtime noise); every tuner handed the wrapped problem measures
// the same way. See core.MinOfRepeats.
func MinOfRepeats(p *Problem, r int) *Problem { return core.MinOfRepeats(p, r) }

// Engine is the step-wise ask/tell form of the MLA loop: Suggest hands out
// the next configuration, the caller evaluates it however it likes (no
// in-process Objective needed), and Observe/Fail feed the outcome back.
// Tune is a thin driver over it; the gptuned HTTP service is another.
type (
	Engine     = core.Engine
	Suggestion = core.Suggestion
)

// ErrDone and ErrNonePending are the Engine's two sentinel conditions:
// budget exhausted, and nothing to hand out until outstanding observations
// arrive.
var (
	ErrDone        = core.ErrDone
	ErrNonePending = core.ErrNonePending
)

// NewEngine builds an ask/tell engine over the problem and native task
// vectors. The problem may omit Objective — evaluations are the caller's.
func NewEngine(p *Problem, tasks [][]float64, options Options) (*Engine, error) {
	return core.NewEngine(p, tasks, options)
}

// SampleTasks draws δ feasible task vectors from the problem's task space
// (the paper's first sampling step, used when the user does not supply a
// task list).
func SampleTasks(p *Problem, delta int, seed int64) ([][]float64, error) {
	if p.Tasks == nil {
		return nil, fmt.Errorf("gptune: problem has no task space")
	}
	return sample.FeasibleLHS(p.Tasks, delta, rng.New(seed, rng.Tasks))
}

// Tuner is the single-task autotuner interface shared by GPTune (δ=1) and
// the baseline tuners.
type Tuner = tuners.Tuner

// tunerTable is the one list of invocable single-task tuners, keyed by each
// tuner's own Name(): NewTuner resolves through it, TunerNames lists it, and
// cmd/gptune builds its -tuner help from that list. (Multitask MLA is not a
// Tuner — it takes all tasks at once; see Tune.)
var tunerTable = []Tuner{
	singletask.Tuner{},
	opentuner.Tuner{},
	hpbandster.Tuner{},
	surf.Tuner{},
	tuners.Random{},
	tuners.Grid{},
}

// NewTuner returns a single-task tuner by name (one of TunerNames()) —
// mirroring the paper's Section 6.1 interface for invoking other autotuners
// (it lists OpenTuner, HpBandSter and ytopt; SuRF is the Section 5
// random-forest approach; "gptune-singletask" is GPTune's own MLA run with
// δ=1).
func NewTuner(name string) (Tuner, error) {
	for _, tn := range tunerTable {
		if tn.Name() == name {
			return tn, nil
		}
	}
	return nil, fmt.Errorf("gptune: unknown tuner %q (have %s)", name, strings.Join(TunerNames(), ", "))
}

// TunerNames lists the names NewTuner accepts.
func TunerNames() []string {
	names := make([]string, len(tunerTable))
	for i, tn := range tunerTable {
		names[i] = tn.Name()
	}
	return names
}

// History is the persistent tuning-data archive (paper goal #3).
type History = histdb.DB

// HistoryRecord is one archived evaluation.
type HistoryRecord = histdb.Record

// LoadHistory reads an archive from disk (empty when missing).
func LoadHistory(path string) (*History, error) { return histdb.Load(path) }

// NewHistory returns an empty archive.
func NewHistory() *History { return histdb.New() }

// PriorSample is one pre-existing evaluation used to warm-start MLA (see
// Options.Prior).
type PriorSample = core.PriorSample

// PriorFromHistory converts a problem's archived records into MLA prior
// samples for the given tasks, enabling tuning that improves over time:
//
//	db, _ := gptune.LoadHistory("runs.json")
//	opts.Prior = gptune.PriorFromHistory(db, problem.Name, tasks)
func PriorFromHistory(db *History, problem string, tasks [][]float64) []PriorSample {
	var out []PriorSample
	for _, task := range tasks {
		for _, r := range db.Query(problem, task) {
			if !r.IsEval() || len(r.Outputs) == 0 {
				continue // model snapshots and output-less records are not evaluations
			}
			out = append(out, PriorSample{Task: r.Task, X: r.Config, Y: r.Outputs})
		}
	}
	return out
}

// RecordResult archives every evaluation of an MLA result into db, except one
// the archive already holds exactly (same problem, task, configuration and
// outputs): a run seeded from db through PriorFromHistory carries those prior
// samples in its result, and archiving them again would duplicate them.
func RecordResult(db *History, problem string, res *Result) {
	held := make(map[string]bool)
	for _, r := range db.Query(problem, nil) {
		if r.IsEval() {
			held[fmt.Sprint(r.Task, r.Config, r.Outputs)] = true // %v prints each float's shortest exact form
		}
	}
	for _, tr := range res.Tasks {
		for j := range tr.X {
			if held[fmt.Sprint(tr.Task, tr.X[j], tr.Y[j])] {
				continue
			}
			db.Append(histdb.Record{
				Problem: problem,
				Task:    tr.Task,
				Config:  tr.X[j],
				Outputs: tr.Y[j],
			})
		}
	}
}

// Checkpoint receives every completed evaluation of a run as it lands (see
// Options.Checkpoint); Checkpointer is the WAL-backed implementation that
// makes runs crash-safe and resumable.
type (
	Checkpoint        = core.Checkpoint
	CheckpointRecord  = core.CheckpointRecord
	CheckpointOptions = core.CheckpointOptions
	Checkpointer      = core.Checkpointer
)

// NewCheckpoint creates a fresh crash-safe evaluation log at path; pass the
// result as Options.Checkpoint so every evaluation is durable the moment it
// completes. It refuses a path that already holds records — use Resume.
func NewCheckpoint(path string, opts CheckpointOptions) (*Checkpointer, error) {
	return core.NewCheckpoint(path, opts)
}

// Resume reopens a checkpoint left by a killed run. Re-running Tune with
// the same problem, tasks, seed and options replays the logged evaluations
// bitwise (without re-invoking the objective for them) and then continues
// tuning — and logging — from where the crash cut the run off.
func Resume(path string, opts CheckpointOptions) (*Checkpointer, error) {
	return core.Resume(path, opts)
}

// VerifyHistory inspects the snapshot and write-ahead log behind path and
// reports what a recovery would keep (see histdb.Verify).
func VerifyHistory(path string) (histdb.VerifyResult, error) { return histdb.Verify(path) }

// ModelSnapshot is a serialized fitted surrogate. A run whose
// Options.Checkpoint is a Checkpointer logs one per refit and objective when
// its backend's fit reads a warm start (every GP backend; not "rf");
// LoadModelSnapshots reads them back for a later run's Options.WarmStart.
type ModelSnapshot = core.ModelSnapshot

// SurrogateKinds lists the model backends selectable via Options.Surrogate,
// in the surrogate registry's order: "lcm" (the paper's multitask Linear
// Coregionalization Model, the default), "gp-indep" (independent per-task
// GPs — no cross-task learning), "sgp" (sparse inducing-point GPs that scale
// to histories far past the exact backends' O(n³) ceiling), and "rf" (random
// forest, the SuRF-style Section 5 approach). The registry is the single
// source of truth — CLI help and service validation errors both derive from
// this list.
func SurrogateKinds() []string { return surrogate.Kinds() }

// LoadModelSnapshots reads the fitted-surrogate snapshots a checkpointed run
// left in its history log, enabling transfer learning
// across sessions: feed the result to a later run's Options.WarmStart and
// its modeling phases seed hyperparameter optimization at the previous
// session's optimum (the paper's "tuning improves over time" goal, applied
// to the model rather than the data). Snapshots are returned in append
// order; WarmStart uses the last matching (kind, objective) entry. A
// missing file returns no snapshots and no error.
func LoadModelSnapshots(path string) ([]ModelSnapshot, error) {
	db, err := histdb.Load(path)
	if err != nil {
		return nil, err
	}
	var out []ModelSnapshot
	for _, r := range db.Records() {
		if r.Kind == histdb.KindModel {
			out = append(out, ModelSnapshot{Kind: r.Surrogate, Objective: r.Objective, Data: r.Snapshot})
		}
	}
	return out, nil
}

// Dataset is multitask training data for standalone surrogate modeling.
type Dataset = gp.Dataset

// Surrogate is a fitted multitask LCM model (Eqs. 1-6 of the paper),
// usable directly for regression outside the tuning loop.
type Surrogate = gp.LCM

// SurrogateOptions configures standalone LCM fitting.
type SurrogateOptions = gp.FitOptions

// FitSurrogate fits the multitask LCM to a dataset — the paper's modeling
// phase exposed as a standalone regression tool. Combine with
// Surrogate.Predict and Surrogate.LeaveOneOut for model diagnostics.
func FitSurrogate(data *Dataset, options SurrogateOptions) (*Surrogate, error) {
	return gp.FitLCM(data, options)
}
