package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/mpx"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/surrogate"
)

// ErrDone reports that a study's evaluation budget is exhausted: every task
// has received its EpsTot evaluations and no further suggestions exist.
var ErrDone = errors.New("core: tuning budget exhausted")

// ErrNonePending reports that the engine cannot hand out a suggestion right
// now: the current batch has nothing unobserved for the asker, and what it is
// waiting for is other callers' reports. Suggest returns it at once;
// SuggestContext parks instead and returns it only when its context ends
// first (or a dead job means the wait can never end). Callers should report
// pending observations or ask again.
var ErrNonePending = errors.New("core: no suggestion pending until outstanding observations are reported")

// ErrUnknownSuggestion reports an Observe/Fail against an ID the engine has
// no pending suggestion for: never issued, failed terminally, or — for Fail
// only; Observe acknowledges a repeated report — already observed. The serve
// layer matches it with errors.Is to return 404 instead of string-matching
// error text.
var ErrUnknownSuggestion = errors.New("core: engine: no pending suggestion")

// ErrBadObservation reports structurally invalid reported outputs (wrong
// arity or non-finite values). The suggestion stays pending, so the caller
// can re-report. The serve layer maps it to 400.
var ErrBadObservation = errors.New("core: bad observation")

// ErrTerminalFailure reports that a suggestion failed three evaluation
// attempts and is dead, wrapping the last cause. A dead job blocks its
// batch forever; the study cannot finish without operator intervention.
var ErrTerminalFailure = errors.New("core: objective failed after retries")

// Suggestion is one configuration the engine wants evaluated: ask for it
// with Suggest, run the application, and hand the outputs back to Observe
// (or Fail, if the evaluation errored) using the same ID.
type Suggestion struct {
	ID    int64     // opaque handle tying Observe/Fail back to this suggestion
	Task  int       // index into the engine's task list
	Phase string    // "init", "search" (Algorithm 1) or "mo" (Algorithm 2)
	X     []float64 // native configuration to evaluate (caller-owned copy)
}

// engJob is one suggestion's lifecycle inside the engine. requested is the
// configuration the sampler/search originally asked for; x starts equal and
// diverges when Fail substitutes fresh feasible draws.
type engJob struct {
	id        int64
	task      int
	phase     string
	requested []float64
	x         []float64
	y         []float64
	rng       *rand.Rand // the retry stream: task, slot, minSamples before the batch
	attempts  int
	lastErr   error
	issued    bool
	observed  bool
	dead      bool // failed terminally; blocks its batch forever
}

func (j *engJob) suggestion() Suggestion {
	return Suggestion{ID: j.id, Task: j.task, Phase: j.phase, X: append([]float64(nil), j.x...)}
}

// Engine is the step-wise ask/tell form of the MLA loop: Suggest hands out
// the next configuration to evaluate, Observe feeds the measured outputs
// back, and the engine runs the sample→model→search machinery of Algorithms
// 1/2 internally, one batch at a time. The batch Run driver and the gptuned
// HTTP service are both thin clients of this type.
//
// Determinism contract: observations commit to the tuning history in the
// batch's canonical generation order, no matter which order Observe calls
// arrive in (out-of-order observations buffer until their predecessors
// land). The history — and therefore every later modeling/search decision —
// is bitwise identical to the batch driver's for the same problem, tasks,
// seed and options. Checkpoint deliveries follow the same canonical order,
// so the PR 3 WAL replay path resumes ask/tell studies unchanged.
//
// All methods are safe for concurrent use. The mutex guards only batch
// bookkeeping and history commits; batch generation — the modeling and
// search phases — always runs with the mutex released, so Observe, Fail and
// the status surface (Phase/Done/Err/Result) never wait out a surrogate
// fit. Generation can run off-mutex because it only starts once the
// previous batch has fully committed: at that point no job is pending, so
// no concurrent call can touch the history or generation state it reads.
//
// Every generation runs on the engine's one background goroutine, started
// lazily by an asker: the Suggest/SuggestAll/SuggestContext call that finds
// the batch fully committed starts it and waits on a condition variable with
// every other asker until the new batch installs. Nothing else starts one, so
// a study nobody asks again never pays for a fit. A SuggestContext caller
// parks on the same condition variable through other callers' evaluations
// too; the one woken by the report that completes the batch is the asker
// that starts the next generation.
type Engine struct {
	mu  sync.Mutex
	gen *sync.Cond // broadcast when an asker's answer may have changed: a generation installed or failed, a report, a job going dead, a parked asker's context ending

	st    *state
	start time.Time

	batch      []*engJob // current batch, canonical order
	batchBase  int64     // ID of batch[0]: IDs are sequential, batch after batch
	nextCommit int       // first uncommitted index in batch

	initGenerated bool
	priorsMerged  bool
	generating    bool           // one generation runs off-mutex at a time
	genWG         sync.WaitGroup // joins the background generator (Quiesce)
	phase         string         // tuning phase of the current batch: "init", "search", "mo"
	fatal         error
}

// NewEngine builds an ask/tell engine over the problem and native task
// vectors. Unlike Run, the problem needs no Objective — evaluations are the
// caller's job. The options mean exactly what they mean for Run; Workers
// bounds the internal modeling/search parallelism, and ModelGate (if set)
// bounds how many engines model concurrently.
func NewEngine(p *Problem, tasks [][]float64, options Options) (*Engine, error) {
	if err := p.validateForEngine(); err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, errors.New("core: no tasks given")
	}
	if err := p.CheckTasks(tasks); err != nil {
		return nil, err
	}
	options.defaults()
	if err := options.Validate(p.Outputs.Dim()); err != nil {
		return nil, err
	}
	// A malformed seed would otherwise panic in the acquisition on the
	// generation goroutine, where no caller can recover it.
	for i, seed := range options.Search.Seeds {
		if len(seed) != p.Tuning.Dim() {
			return nil, fmt.Errorf("core: Options.Search.Seeds[%d] has %d coordinates, the tuning space has %d parameters", i, len(seed), p.Tuning.Dim())
		}
		for d, v := range seed {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("core: Options.Search.Seeds[%d][%d] is non-finite (%v)", i, d, v)
			}
		}
	}
	// Priors merge only after the initial batch is paid for, where a bad one
	// would fail the first modeling phase under a flattened sample index.
	for k, ps := range options.Prior {
		if len(ps.X) != p.Tuning.Dim() {
			return nil, fmt.Errorf("core: Options.Prior[%d] has %d tuning values, the tuning space has %d parameters", k, len(ps.X), p.Tuning.Dim())
		}
		for d, v := range ps.X {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("core: Options.Prior[%d] parameter %q is non-finite (%v)", k, p.Tuning.Params[d].Name, v)
			}
		}
		if err := p.checkOutputs(ps.Y); err != nil {
			return nil, fmt.Errorf("core: Options.Prior[%d] outputs: %w", k, err)
		}
	}
	fitter := options.fitterOverride
	if fitter == nil {
		var err error
		fitter, err = surrogate.New(options.Surrogate)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	st := &state{
		p:      p,
		opts:   options,
		fitter: fitter,
		warm:   warmStarts(fitter.Kind(), options.WarmStart, p.Outputs.Dim()),
		tasks:  tasks,
		X:      make([][][]float64, len(tasks)),
		Y:      make([][][]float64, len(tasks)),
		done:   make([]int, len(tasks)),
		rng:    rng.New(options.Seed, rng.Engine),
	}
	if p.Model != nil {
		st.coeffs = append([]float64(nil), p.Model.Coeffs...)
	}
	e := &Engine{st: st, start: st.opts.now(), phase: "init"}
	e.gen = sync.NewCond(&e.mu)
	return e, nil
}

// Surrogate returns the resolved surrogate backend kind the engine models
// with (one of surrogate.Kinds()).
func (e *Engine) Surrogate() string { return e.st.fitter.Kind() }

// Phase returns the tuning phase of the engine's current batch: "init"
// (Algorithm 1 line 1 sampling), "search" (single-objective model/search
// generations), "mo" (Algorithm 2 generations), or "done" once the budget is
// exhausted and every observation has committed. Never blocks on a
// generation in flight.
func (e *Engine) Phase() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.doneLocked() {
		return "done"
	}
	return e.phase
}

// doneLocked reports whether the budget is exhausted and every observation
// has committed. Called with e.mu held.
func (e *Engine) doneLocked() bool {
	return e.initGenerated && e.nextCommit == len(e.batch) && e.st.minDone() >= e.st.opts.EpsTot
}

// Suggest returns the next configuration to evaluate for the given task
// (task = -1 means any task), waiting out a generation in flight but never
// another caller's evaluation, so a single-threaded ask/tell loop cannot
// deadlock on its own unreported job. When every fresh configuration of the
// current batch is already handed out, the outstanding one is returned again
// — a crashed caller can re-ask — and ErrNonePending is returned when no
// unobserved configuration for the task exists at all. ErrDone signals the
// budget is exhausted.
func (e *Engine) Suggest(task int) (Suggestion, error) {
	if err := e.checkTask(task); err != nil {
		return Suggestion{}, err
	}
	e.await(e.settled)
	defer e.mu.Unlock()
	return e.handOut(task)
}

// SuggestContext is Suggest for a caller that would only ask again: where
// Suggest returns ErrNonePending it parks — through a generation and through
// the other callers' evaluations the batch is waiting for — until the batch
// has a configuration for the task, the budget is done, the engine is fatal,
// or ctx ends, which alone still returns ErrNonePending (a batch blocked by a
// dead job returns it at once: no report can end that wait). A generation
// this call started keeps running after ctx ends; the next ask finds its
// batch.
func (e *Engine) SuggestContext(ctx context.Context, task int) (Suggestion, error) {
	if err := e.checkTask(task); err != nil {
		return Suggestion{}, err
	}
	// Under the mutex, so the wake cannot fall between the asker's check of
	// ctx and its Wait.
	stop := context.AfterFunc(ctx, func() {
		e.mu.Lock()
		e.gen.Broadcast()
		e.mu.Unlock()
	})
	defer stop()
	e.await(func() bool { return ctx.Err() != nil || e.settled() && e.answerable(task) })
	defer e.mu.Unlock()
	return e.handOut(task)
}

func (e *Engine) checkTask(task int) error {
	if task < -1 || task >= len(e.st.tasks) {
		return fmt.Errorf("core: engine: task %d out of range (have %d tasks)", task, len(e.st.tasks))
	}
	return nil
}

// SuggestAll hands out every not-yet-issued configuration of the current
// batch at once (generating the next batch first if the previous one is
// fully committed). An empty slice with a nil error means the budget is
// exhausted. This is the batch driver's path: one call per MLA iteration.
func (e *Engine) SuggestAll() ([]Suggestion, error) {
	e.await(e.settled)
	defer e.mu.Unlock()
	if e.fatal != nil {
		return nil, e.fatal
	}
	var out []Suggestion
	for _, j := range e.batch[e.nextCommit:] {
		if j.observed || j.dead || j.issued {
			continue
		}
		j.issued = true
		out = append(out, j.suggestion())
	}
	return out, nil
}

// await is the engine's one wait loop. It returns with e.mu HELD as soon as
// until, evaluated under the mutex, holds. Every turn first starts the
// generation a fully committed batch needs, so whichever asker is woken by
// the report that completes a batch is the one that starts the next; the
// wait is on the condition variable, which releases the mutex.
func (e *Engine) await(until func() bool) {
	e.mu.Lock()
	for {
		e.startGeneration()
		if until() {
			return
		}
		e.gen.Wait()
	}
}

// settled reports that no generation is in flight: the batch has uncommitted
// work, the budget is exhausted, or the engine is fatal. Called with e.mu
// held.
func (e *Engine) settled() bool { return !e.generating }

// answerable reports whether a settled engine has an answer other than "ask
// again later" for an asker of task. Called with e.mu held.
func (e *Engine) answerable(task int) bool {
	if e.fatal != nil || e.doneLocked() || e.pick(task) != nil {
		return true
	}
	for _, j := range e.batch[e.nextCommit:] {
		if j.dead {
			return true
		}
	}
	return false
}

// pick returns the job an ask for task is handed: the first not yet issued,
// else the first issued and still unobserved, else nil. Called with e.mu
// held.
func (e *Engine) pick(task int) *engJob {
	var again *engJob
	for _, j := range e.batch[e.nextCommit:] {
		if j.observed || j.dead || (task >= 0 && j.task != task) {
			continue
		}
		if !j.issued {
			return j
		}
		if again == nil {
			again = j
		}
	}
	return again
}

// handOut answers an ask for task from the engine's current state. Called
// with e.mu held.
func (e *Engine) handOut(task int) (Suggestion, error) {
	if e.fatal != nil {
		return Suggestion{}, e.fatal
	}
	if e.doneLocked() {
		return Suggestion{}, ErrDone
	}
	j := e.pick(task)
	if j == nil {
		return Suggestion{}, ErrNonePending
	}
	j.issued = true
	return j.suggestion(), nil
}

// CatchUp runs the generations a resumed engine still owes its checkpoint,
// so on return the history holds every logged evaluation the run reproduces.
// It hands nothing out; the batch it stops at is the one the next Suggest
// would have generated. Call it only while Checkpointer.Replaying: an engine
// that is not behind must not start or wait on a generation because it was
// read.
func (e *Engine) CatchUp() {
	e.await(e.settled)
	e.mu.Unlock()
}

// startGeneration hands the next batch's generation to the engine's
// background goroutine; a no-op while one is in flight, when the engine is
// fatal or done, or while the current batch has uncommitted work. Called
// with e.mu held, from await only.
func (e *Engine) startGeneration() {
	if e.generating || e.fatal != nil || e.nextCommit < len(e.batch) || e.doneLocked() {
		return
	}
	e.generating = true
	mpx.Go(&e.genWG, e.runGeneration)
}

// Quiesce blocks until no generation is in flight. Callers must stop feeding
// the engine first (no concurrent Suggest/Observe/Fail) or a fresh
// generation may start after Quiesce returns; the tuning service calls it
// after draining HTTP handlers, before closing a study's WAL.
func (e *Engine) Quiesce() {
	e.genWG.Wait()
}

// runGeneration generates batches until one has uncommitted work or the
// budget is exhausted (a resumed run's checkpoint may satisfy entire
// batches at install time, so this loops). Entered and left with e.mu
// released; the mutex is taken only for state transitions — merge, install,
// commit — never across the modeling/search phases. The caller has set
// e.generating; this clears it and wakes every waiter when done.
func (e *Engine) runGeneration() {
	e.mu.Lock()
	for e.fatal == nil && e.nextCommit == len(e.batch) {
		if e.initGenerated && !e.priorsMerged {
			e.st.mergePriors()
			e.priorsMerged = true
		}
		if e.doneLocked() {
			break
		}
		isInit := !e.initGenerated
		e.mu.Unlock()
		jobs, phase, delta, err := e.generate(isInit)
		e.mu.Lock()
		e.st.stats.Add(delta)
		if err != nil {
			e.fatal = err
			break
		}
		e.initGenerated = true
		if err := e.install(jobs, phase); err != nil { //gptlint:ignore lock-held-across-blocking install streams checkpoint-autofilled commits to the WAL inside the critical section so replay order always matches commit order (same contract as Observe)
			break // commitReady already set e.fatal
		}
	}
	e.generating = false
	e.gen.Broadcast()
	e.mu.Unlock()
}

// generate runs one generation's expensive work — initial LHS sampling, or
// the modeling+search phases behind the shared ModelGate — with no engine
// lock held. It reads only the committed history (st.X, st.Y, st.done) and
// generation-private state (st.rng, st.coeffs, st.mdl, the fitter), which
// nothing else touches while a generation is in flight: generation starts
// only once every job of the previous batch has committed, so no pending ID
// exists through which Observe/Fail could mutate the history. Phase timings
// come back as a delta so st.stats stays mutex-guarded for Result readers.
func (e *Engine) generate(isInit bool) (jobs []*engJob, phase string, delta PhaseStats, err error) {
	st := e.st
	if isInit {
		jobs, err = e.genInit()
		return jobs, "init", delta, err
	}
	// Modeling+search is the expensive phase; a shared gate keeps
	// concurrent studies (each with its own engine) from oversubscribing
	// the machine.
	if gate := st.opts.ModelGate; gate != nil {
		gate.Acquire()
		defer gate.Release()
	}
	if st.p.Model != nil && st.opts.FitModelCoeffs && len(st.coeffs) > 0 {
		t0 := st.opts.now()
		st.fitModelCoeffs()
		delta.ModelUpdate += st.opts.since(t0)
	}
	jobs, phase, err = e.genSearch(&delta)
	return jobs, phase, delta, err
}

// install registers a freshly generated batch under the engine mutex — the
// atomic swap concurrent askers' determinism rests on: sequential IDs, the
// engine phase, checkpoint autofill, and the prefix commit all land in one
// critical section, so concurrent callers observe either the old exhausted
// batch or the complete new one. Sets e.fatal on checkpoint failure.
// Called with e.mu held.
func (e *Engine) install(jobs []*engJob, phase string) error {
	st := e.st
	e.phase = phase
	e.batchBase += int64(len(e.batch))
	for i, j := range jobs {
		j.id = e.batchBase + int64(i)
	}
	e.batch, e.nextCommit = jobs, 0
	// A resumed run satisfies already-logged evaluations from the
	// checkpoint instead of re-paying them (the log stores both the
	// requested and the finally-evaluated configuration, so even a
	// retried evaluation replays without consuming retry-RNG draws).
	if cp := st.opts.Checkpoint; cp != nil {
		for _, j := range jobs {
			if fx, fy, ok := cp.Lookup(st.tasks[j.task], j.requested); ok {
				j.x, j.y, j.observed = fx, fy, true
			}
		}
	}
	return e.commitReady()
}

// Observe reports the measured outputs for a previously suggested
// configuration. The observation is validated, buffered, and committed to
// the tuning history as soon as every earlier configuration of its batch
// has committed (canonical-order prefix commit); each commit is streamed to
// Options.Checkpoint. A checkpoint failure is fatal to the engine. Observe
// never waits on a generation: it blocks only on the batch-bookkeeping
// mutex.
//
// Reporting an ID again is acknowledged and changes nothing — a caller whose
// first acknowledgement was lost must be able to retry — so the outputs kept
// for an ID are the first ones reported.
func (e *Engine) Observe(id int64, y []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fatal != nil {
		return e.fatal
	}
	j := e.pending(id)
	// IDs are sequential, so one below the batch's uncommitted suffix was
	// observed and committed.
	if j != nil && j.issued && j.observed || id >= 0 && id < e.batchBase+int64(e.nextCommit) {
		return nil
	}
	if j == nil || !j.issued || j.dead {
		return fmt.Errorf("%w %d", ErrUnknownSuggestion, id)
	}
	if err := e.st.p.checkOutputs(y); err != nil {
		return fmt.Errorf("%w: %w", ErrBadObservation, err)
	}
	j.y = append([]float64(nil), y...)
	j.observed = true
	e.st.stats.NumEvals++
	err := e.commitReady() //gptlint:ignore lock-held-across-blocking prefix commits stream to the WAL inside the critical section so replay order always matches commit order
	// A parked asker woken here starts the next generation if this report
	// completed the batch, and sees the fatal error if the commit failed.
	e.gen.Broadcast()
	return err
}

// Fail reports that evaluating a suggestion errored. The engine substitutes
// a fresh feasible configuration (drawn from the job's own deterministic
// retry stream, fixed at generation time) and returns it under the same ID;
// after three failed attempts it gives up and returns ErrTerminalFailure
// wrapping the last cause. The terminal attempt draws nothing: the dead
// job's configuration stays what the last attempt actually ran, and the
// retry stream is left exactly two draws deep no matter how the study ends.
func (e *Engine) Fail(id int64, cause error) (Suggestion, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fatal != nil {
		return Suggestion{}, e.fatal
	}
	j := e.pending(id)
	if j == nil || !j.issued || j.observed || j.dead {
		return Suggestion{}, fmt.Errorf("%w %d", ErrUnknownSuggestion, id)
	}
	if cause == nil {
		cause = errors.New("evaluation failed")
	}
	j.lastErr = cause
	j.attempts++
	if j.attempts >= 3 {
		j.dead = true
		e.gen.Broadcast() // parked askers stop waiting on a batch that cannot complete
		return Suggestion{}, fmt.Errorf("%w: %w", ErrTerminalFailure, j.lastErr)
	}
	pts, serr := sample.FeasibleUniform(e.st.p.Tuning, 1, j.rng)
	if serr != nil {
		j.dead = true
		e.gen.Broadcast()
		return Suggestion{}, serr
	}
	j.x = pts[0]
	return j.suggestion(), nil
}

// Done reports whether the budget is exhausted and every observation has
// committed. Never blocks on a generation in flight.
func (e *Engine) Done() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.doneLocked()
}

// Err returns the engine's fatal error (a checkpoint failure or a
// generation failure), if any.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fatal
}

// Result packages everything observed so far — valid mid-study (partial
// history) and after Done. Never blocks on a generation in flight: it reads
// the committed history under the bookkeeping mutex, which generation never
// holds.
func (e *Engine) Result() *Result {
	e.mu.Lock()
	defer e.mu.Unlock()
	res := e.st.partialResult()
	res.Stats.Total = e.st.opts.since(e.start)
	return res
}

// pending returns the uncommitted job of the current batch with the given
// ID, or nil. Called with e.mu held.
func (e *Engine) pending(id int64) *engJob {
	i := id - e.batchBase
	if i < int64(e.nextCommit) || i >= int64(len(e.batch)) {
		return nil
	}
	return e.batch[i]
}

// commitReady commits the contiguous observed prefix of the current batch:
// each job is streamed to the checkpoint first (write-ahead), then appended
// to the tuning history. Called with e.mu held.
func (e *Engine) commitReady() error {
	st := e.st
	for e.nextCommit < len(e.batch) {
		j := e.batch[e.nextCommit]
		if !j.observed {
			return nil
		}
		if err := st.checkpointEval(j.phase, j.task, j.requested, j.x, j.y); err != nil {
			err = fmt.Errorf("core: checkpoint: %w", err)
			e.fatal = err
			return err
		}
		st.X[j.task] = append(st.X[j.task], j.x)
		st.Y[j.task] = append(st.Y[j.task], j.y)
		st.done[j.task]++
		e.nextCommit++
	}
	return nil
}

// genInit implements Algorithm 1 line 1: ε_tot/2 feasible LHS
// configurations per task. A job's retry stream is labelled with its slot,
// not just the task: two failing configurations of the same task must draw
// distinct replacement points (a task-only seed made them collide). IDs are
// assigned later, at install time, under the engine mutex.
func (e *Engine) genInit() ([]*engJob, error) {
	st := e.st
	eps := int(math.Round(float64(st.opts.EpsTot) * st.opts.InitFraction))
	if eps < 1 {
		eps = 1
	}
	if eps >= st.opts.EpsTot {
		eps = st.opts.EpsTot - 1
	}
	var jobs []*engJob
	for i := range st.tasks {
		pts, err := sample.FeasibleLHS(st.p.Tuning, eps, st.rng)
		if err != nil {
			return nil, fmt.Errorf("core: initial sampling for task %d: %w", i, err)
		}
		for b, x := range pts {
			jobs = append(jobs, &engJob{task: i, phase: "init", requested: x, x: x, rng: rng.New(st.opts.Seed, rng.Retry, uint64(i), uint64(b), 0)})
		}
	}
	return jobs, nil
}

// genSearch performs one generation past the initial sampling — Algorithm 1
// for a single objective, Algorithm 2 for several. Modeling phase: one joint
// LCM per objective fitted on all data, or — on incremental generations under
// Options.RefitEvery — the previous models extended with the new points.
// Search phase: per task, BatchEvals configurations maximizing the
// acquisition by PSO and spread by distance penalization (phase "search"),
// or an NSGA-II search over the vector of per-objective Expected
// Improvements (phase "mo"). The batch comes back in (task, slot) order.
// Runs without the engine mutex; phase timings accumulate into delta.
func (e *Engine) genSearch(delta *PhaseStats) (jobs []*engJob, phase string, err error) {
	st := e.st
	gamma := st.p.Outputs.Dim()
	ms := st.minSamples()

	t0 := st.opts.now()
	models, tvs, fs, refit, err := st.modelPhase(gamma, ms)
	delta.Modeling += st.opts.since(t0)
	if err != nil {
		return nil, "", err
	}
	// Incremental generations skip the snapshot: the model's hyperparameters
	// haven't moved since the refit that already took one.
	if refit {
		for s, model := range models {
			if err := st.snapshotModel(model, s); err != nil {
				return nil, "", err
			}
		}
	}

	phase, search := "search", func(i int) [][]float64 { return st.searchBatch(i, models[0], tvs[0], fs) }
	if gamma > 1 {
		phase, search = "mo", func(i int) [][]float64 { return st.searchMO(i, models, tvs, fs) }
	}
	t1 := st.opts.now()
	newX := make([][][]float64, len(st.tasks))
	mpx.ParallelFor(len(st.tasks), st.opts.Workers, func(i int) { newX[i] = search(i) })
	delta.Search += st.opts.since(t1)

	// Flatten into a canonical-order batch. A job's retry stream is labelled
	// with its task, slot and minSamples frozen pre-batch. IDs are assigned
	// at install time, under the engine mutex.
	for i := range newX {
		for b, x := range newX[i] {
			jobs = append(jobs, &engJob{
				task:      i,
				phase:     phase,
				requested: x,
				x:         x,
				rng:       rng.New(st.opts.Seed, rng.Retry, uint64(i), uint64(b), uint64(ms)),
			})
		}
	}
	return jobs, phase, nil
}
