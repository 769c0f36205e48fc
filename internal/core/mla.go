package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/acq"
	"repro/internal/la"
	"repro/internal/mpx"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/space"
	"repro/internal/surrogate"
)

// Run executes MLA (Algorithm 1 for γ=1, Algorithm 2 for γ>1) on the given
// native task parameter vectors. Each task receives Options.EpsTot objective
// evaluations: half in the initial sampling phase and the rest chosen by
// Bayesian optimization over the shared LCM surrogate.
func Run(p *Problem, tasks [][]float64, options Options) (*Result, error) {
	return RunContext(context.Background(), p, tasks, options)
}

// RunContext is Run with cooperative cancellation: the context is checked
// between MLA iterations (a long-running objective evaluation in flight is
// allowed to finish — the engine never abandons a worker mid-call). On
// cancellation the samples gathered so far are returned along with the
// context's error, so anytime performance is preserved.
//
// Run is a thin driver over the ask/tell Engine: each loop turn asks for
// the next batch of suggestions (SuggestAll waits out the modeling and search
// phases), evaluates them concurrently over Options.Workers, and reports
// each output through Observe straight from the worker that measured it. The
// engine's canonical-order prefix commit makes the history and the
// checkpoint stream independent of completion order — the same path every
// gptuned request takes.
func RunContext(ctx context.Context, p *Problem, tasks [][]float64, options Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e, err := NewEngine(p, tasks, options)
	if err != nil {
		return nil, err
	}
	defer e.Quiesce()
	st := e.st
	opts := &st.opts // defaulted copy

	first := true
	for {
		if !first {
			if err := ctx.Err(); err != nil {
				res := st.partialResult()
				res.Stats.Total = opts.since(e.start)
				return res, err
			}
		}
		suggs, err := e.SuggestAll()
		if err != nil {
			return nil, err
		}
		if len(suggs) == 0 {
			break
		}
		first = false

		// Evaluate the batch concurrently (Section 4.2). Evaluation errors
		// retry through the engine (fresh feasible draws from the job's own
		// deterministic retry stream); errs[k] keeps a suggestion's terminal
		// failure.
		errs := make([]error, len(suggs))
		t0 := opts.now()
		mpx.ParallelFor(len(suggs), opts.Workers, func(k int) {
			sg := suggs[k]
			for {
				y, err := p.Evaluate(st.tasks[sg.Task], sg.X)
				if err == nil {
					errs[k] = e.Observe(sg.ID, y)
					return
				}
				if sg, errs[k] = e.Fail(sg.ID, err); errs[k] != nil {
					return
				}
			}
		})
		st.stats.Objective += opts.since(t0)
		// A checkpoint failure is fatal to the engine and outranks
		// evaluation failures, which report by canonical index.
		if err := e.Err(); err != nil {
			return nil, err
		}
		for k := range suggs {
			if errs[k] != nil {
				if suggs[k].Phase == "init" {
					return nil, fmt.Errorf("core: evaluating task %d: %w", suggs[k].Task, errs[k])
				}
				return nil, errs[k]
			}
		}
	}

	res := st.partialResult()
	st.stats.Total = opts.since(e.start)
	res.Stats = st.stats
	return res, nil
}

// partialResult packages whatever has been observed so far. Called under
// the engine mutex, or by the batch driver between batches.
func (st *state) partialResult() *Result {
	res := &Result{Tasks: make([]TaskResult, len(st.tasks)), Stats: st.stats}
	for i := range st.tasks {
		tr := TaskResult{Task: st.tasks[i], X: st.X[i], Y: st.Y[i]}
		for j := range tr.Y {
			if tr.Y[j][0] < tr.Y[tr.BestIdx][0] {
				tr.BestIdx = j
			}
		}
		res.Tasks[i] = tr
	}
	return res
}

// state carries one MLA run's mutable data.
type state struct {
	p      *Problem
	opts   Options
	fitter surrogate.Fitter // modeling-phase backend, resolved from opts.Surrogate
	tasks  [][]float64
	X      [][][]float64     // [task][sample] native configs
	Y      [][][]float64     // [task][sample] γ outputs
	done   []int             // evaluations performed this run, per task (priors excluded)
	coeffs []float64         // performance-model coefficients
	mdl    modelState        // incremental-modeling bookkeeping (RefitEvery > 1)
	warm   []surrogate.Model // per objective: Options.WarmStart's model, nil = cold start
	stats  PhaseStats
	rng    *rand.Rand
}

// warmModels restores the cross-session warm starts, one per objective: the
// last of snaps matching the backend's kind and the objective index, or nil
// (cold start) when there is none, it does not restore, or the backend's fit
// would not read it — transfer is best-effort and never fails a run.
func warmModels(fitter surrogate.Fitter, snaps []ModelSnapshot, objectives int) []surrogate.Model {
	warm := make([]surrogate.Model, objectives)
	if !surrogate.ReadsWarmStart(fitter.Kind()) {
		return warm
	}
	for s := range warm {
		var data []byte
		for _, snap := range snaps {
			if snap.Objective == s && snap.Kind == fitter.Kind() {
				data = snap.Data
			}
		}
		if data == nil {
			continue
		}
		if m, err := fitter.UnmarshalBinary(data); err == nil {
			warm[s] = m
		}
	}
	return warm
}

// modelSaver is the optional capability of a Checkpoint that archives fitted
// models beside the evaluations they were fitted on; *Checkpointer has it, so
// a checkpointed run's log is also a later session's Options.WarmStart. The
// engine calls SaveModel on its generation goroutine after each refit of a
// backend whose fit reads a warm start, and never reads a snapshot back, so a
// mid-run crash cannot change resumed decisions.
type modelSaver interface {
	SaveModel(snap ModelSnapshot) error
}

// saveModel streams one refit model to the checkpoint when it can archive
// models and a later session's fit would read the snapshot (no-op otherwise:
// a forest's would be written after every refit and read by nothing). Save
// failures are fatal to the run, like checkpoint failures: a log that
// silently drops snapshots would poison later sessions.
func (st *state) saveModel(model surrogate.Model, objective int) error {
	store, ok := st.opts.Checkpoint.(modelSaver)
	if !ok || !surrogate.ReadsWarmStart(model.Kind()) {
		return nil
	}
	blob, err := model.MarshalBinary()
	if err != nil {
		return fmt.Errorf("core: serializing %s model: %w", model.Kind(), err)
	}
	if err := store.SaveModel(ModelSnapshot{Kind: model.Kind(), Objective: objective, Data: blob}); err != nil {
		return fmt.Errorf("core: saving %s model snapshot: %w", model.Kind(), err)
	}
	return nil
}

// minDone returns the minimum number of budgeted evaluations across tasks.
func (st *state) minDone() int {
	m := st.done[0]
	for _, d := range st.done[1:] {
		if d < m {
			m = d
		}
	}
	return m
}

// mergePriors injects Options.Prior samples whose task exactly matches one
// of the run's tasks. They extend the dataset but not the budget counters.
// NewEngine has validated every sample.
func (st *state) mergePriors() {
	for _, ps := range st.opts.Prior {
		for i, task := range st.tasks {
			if equalVec(task, ps.Task) {
				st.X[i] = append(st.X[i], append([]float64(nil), ps.X...))
				st.Y[i] = append(st.Y[i], append([]float64(nil), ps.Y...))
				break
			}
		}
	}
}

// equalVec is the package's one exact vector comparison: prior samples are
// routed to tasks by it and duplicate configurations are detected by it.
func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { //gptlint:ignore float-eq exact match on stored task vectors and configurations; the values are copied, never recomputed
			return false
		}
	}
	return true
}

// containsConfig reports whether list holds an exact copy of x.
func containsConfig(list [][]float64, x []float64) bool {
	for _, prev := range list {
		if equalVec(prev, x) {
			return true
		}
	}
	return false
}

func (st *state) minSamples() int {
	m := len(st.X[0])
	for _, xi := range st.X[1:] {
		if len(xi) < m {
			m = len(xi)
		}
	}
	return m
}

// checkpointEval streams one completed evaluation to the checkpoint hook
// (no-op without one). Called from commitReady under the engine mutex, in
// batch order.
func (st *state) checkpointEval(phase string, task int, requested, x, y []float64) error {
	cp := st.opts.Checkpoint
	if cp == nil {
		return nil
	}
	return cp.Eval(CheckpointRecord{Phase: phase, Task: st.tasks[task], Requested: requested, X: x, Y: y})
}

// featureScale holds the normalization of performance-model features used
// during one modeling+search iteration.
type featureScale struct {
	lo, hi []float64
	logT   []bool
}

// applyInto scales raw into dst without allocating; dst must have len(raw).
//
//gptlint:hotpath
func (fs *featureScale) applyInto(dst, raw []float64) {
	for d, v := range raw {
		if fs.logT[d] {
			v = math.Log(v)
		}
		dst[d] = 0
		if fs.hi[d] > fs.lo[d] {
			dst[d] = (v - fs.lo[d]) / (fs.hi[d] - fs.lo[d])
		}
		if dst[d] < 0 {
			dst[d] = 0
		} else if dst[d] > 1 {
			dst[d] = 1
		}
	}
}

// buildFeatureScale computes per-feature normalization over all current
// samples. Positive features spanning >2 orders of magnitude are
// log-transformed first.
func (st *state) buildFeatureScale() *featureScale {
	m := st.p.Model
	if m == nil {
		return nil
	}
	raws := make([][]float64, 0, 64)
	for i := range st.tasks {
		for _, x := range st.X[i] {
			raws = append(raws, m.Eval(st.tasks[i], x, st.coeffs))
		}
	}
	fs := &featureScale{
		lo:   make([]float64, m.Dim),
		hi:   make([]float64, m.Dim),
		logT: make([]bool, m.Dim),
	}
	for d := 0; d < m.Dim; d++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		allPos := true
		for _, r := range raws {
			v := r[d]
			if v <= 0 {
				allPos = false
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if allPos && lo > 0 && hi/lo > 100 {
			fs.logT[d] = true
			lo, hi = math.Log(lo), math.Log(hi)
		}
		fs.lo[d], fs.hi[d] = lo, hi
	}
	return fs
}

// modelDim returns the surrogate input dimension for the current
// generation: the tuning dimension plus the feature count when a
// performance model is in play.
func (st *state) modelDim(fs *featureScale) int {
	if fs == nil {
		return st.p.Tuning.Dim()
	}
	return st.p.Tuning.Dim() + len(fs.lo)
}

// modelPointInto maps a native configuration to the (possibly enriched)
// surrogate input: dst receives the normalized tuning parameters plus, when
// fs is non-nil, the scaled performance-model features. dst must have length
// modelDim(fs).
//
//gptlint:hotpath
func (st *state) modelPointInto(dst []float64, task int, xNative []float64, fs *featureScale) {
	dim := st.p.Tuning.Dim()
	st.p.Tuning.NormalizeInto(dst[:dim], xNative)
	if fs == nil {
		return
	}
	raw := st.p.Model.Eval(st.tasks[task], xNative, st.coeffs)
	fs.applyInto(dst[dim:], raw)
}

// logApplied reports whether objective s is modeled in log space this
// generation: requested via Options.LogY and possible (every observation
// positive). Factored out of yTransform so the incremental modeling path
// can record — and later re-validate — the decision a refit froze.
func (st *state) logApplied(s int) bool {
	if !st.opts.LogY {
		return false
	}
	for i := range st.Y {
		for _, y := range st.Y[i] {
			if y[s] <= 0 {
				return false
			}
		}
	}
	return true
}

func identityTransform(v float64) float64 { return v }

// yTransform returns the "transform one value" helper matching a log-space
// decision (logApplied at a refit, or the one a refit froze): the search
// phase maps incumbents through it.
func yTransform(logY bool) func(float64) float64 {
	if logY {
		return math.Log
	}
	return identityTransform
}

// buildDataset assembles surrogate training rows for objective s: for each
// task the samples from index from[i] on (from == nil means all of them),
// inputs mapped through fs and outputs log-transformed when logY. A refit
// passes the scale and transform it just decided and takes everything; an
// incremental generation passes the ones the last refit froze and the counts
// its models have absorbed, so the new rows live in the same input/output
// space as the models' training set.
func (st *state) buildDataset(s int, fs *featureScale, logY bool, from []int) *surrogate.Dataset {
	dim := st.modelDim(fs)
	tv := yTransform(logY)
	data := &surrogate.Dataset{
		Dim: dim,
		X:   make([][][]float64, len(st.tasks)),
		Y:   make([][]float64, len(st.tasks)),
	}
	for i := range st.tasks {
		j0 := 0
		if from != nil {
			j0 = from[i]
		}
		for j := j0; j < len(st.X[i]); j++ {
			pt := make([]float64, dim)
			st.modelPointInto(pt, i, st.X[i][j], fs)
			data.X[i] = append(data.X[i], pt)
			data.Y[i] = append(data.Y[i], tv(st.Y[i][j][s]))
		}
	}
	return data
}

// fitModelCoeffs implements the Section 3.3 performance model update phase.
func (st *state) fitModelCoeffs() {
	m := st.p.Model
	var tasks, xs [][]float64
	var ys []float64
	for i := range st.tasks {
		for j, x := range st.X[i] {
			tasks = append(tasks, st.tasks[i])
			xs = append(xs, x)
			ys = append(ys, st.Y[i][j][0])
		}
	}
	st.coeffs = defaultFitCoeffs(m, tasks, xs, ys, st.coeffs, st.rng)
}

// defaultFitCoeffs least-squares-fits the model's first output against the
// observed first objective by searching multiplicative corrections of the
// current coefficients with Nelder–Mead (log-space box of ±e³ per
// coefficient).
func defaultFitCoeffs(m *PerfModel, tasks, xs [][]float64, ys []float64, current []float64, rng *rand.Rand) []float64 {
	n := len(current)
	if n == 0 || len(ys) == 0 {
		return current
	}
	base := make([]float64, n)
	for i, c := range current {
		base[i] = math.Max(math.Abs(c), 1e-12)
	}
	useLog := true
	for _, y := range ys {
		if y <= 0 {
			useLog = false
			break
		}
	}
	decode := func(u []float64) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = base[i] * la.Exp(6*(u[i]-0.5))
		}
		return c
	}
	loss := func(u []float64) float64 {
		c := decode(u)
		sse := 0.0
		for k := range ys {
			pred := m.Eval(tasks[k], xs[k], c)[0]
			if useLog && pred > 0 {
				d := math.Log(pred) - math.Log(ys[k])
				sse += d * d
			} else {
				d := pred - ys[k]
				sse += d * d
			}
		}
		if math.IsNaN(sse) {
			return math.Inf(1)
		}
		return sse
	}
	start := make([]float64, n)
	for i := range start {
		start[i] = 0.5
	}
	res := opt.NelderMead(loss, n, opt.NelderMeadParams{MaxEvals: 200 * n, Start: start}, rng)
	return decode(res.X)
}

// acquisition converts a posterior prediction into a score to *minimize*.
func (st *state) acquisition(mu, variance, yBest float64) float64 {
	switch st.opts.Acquisition {
	case "lcb":
		return acq.LowerConfidenceBound(mu, variance, st.opts.LCBKappa)
	case "pi":
		return -acq.ProbabilityOfImprovement(mu, variance, yBest)
	default:
		return -acq.ExpectedImprovement(mu, variance, yBest)
	}
}

// searchBatch returns BatchEvals configurations for task i. The first
// maximizes the raw acquisition; subsequent ones maximize the acquisition
// damped near already-chosen points so the batch spreads out.
func (st *state) searchBatch(i int, model surrogate.Model, tv func(float64) float64, fs *featureScale) [][]float64 {
	k := st.opts.BatchEvals
	ws := model.NewWorkspace() // one per task goroutine; reused by every acquisition call
	var chosen [][]float64     // native
	var chosenNorm [][]float64 // normalized, for the penalty
	for b := 0; b < k; b++ {
		x := st.searchOne(i, model, ws, tv, fs, chosenNorm, b)
		if x == nil {
			continue
		}
		chosen = append(chosen, x)
		chosenNorm = append(chosenNorm, st.p.Tuning.Normalize(x))
	}
	return chosen
}

// candidate turns a search's normalized candidates into surrogate inputs. It
// is the one per-candidate path — denormalize, feasibility, model point —
// that every slot of acqSearch.score pushes a candidate through, over buffers
// allocated once per search.
type candidate struct {
	st     *state
	tuning *space.Space // st.p.Tuning, one load away on the per-candidate path
	task   int
	fs     *featureScale

	xNat, pt []float64
	feas     map[string]float64
}

func (st *state) newCandidate(task int, fs *featureScale) candidate {
	dim := st.p.Tuning.Dim()
	return candidate{
		st: st, tuning: st.p.Tuning, task: task, fs: fs,
		xNat: make([]float64, dim), pt: make([]float64, st.modelDim(fs)),
		feas: make(map[string]float64, dim),
	}
}

// point returns the surrogate input for the normalized candidate u, or
// ok == false when u denormalizes to an infeasible configuration. The slice
// (and c.xNat, the native configuration) is overwritten by the next call.
//
//gptlint:hotpath
func (c *candidate) point(u []float64) (pt []float64, ok bool) {
	c.tuning.DenormalizeInto(c.xNat, u)
	if !c.tuning.FeasibleInto(c.feas, c.xNat) {
		return nil, false
	}
	c.st.modelPointInto(c.pt, c.task, c.xNat, c.fs)
	return c.pt, true
}

// scoreSlots is how many candidates one acqSearch.score group predicts
// together: the four points the GP backends solve in one pass over their
// factor.
const scoreSlots = 4

// acqSearch is the acquisition evaluator of one search over one objective's
// model: a candidate path per slot of a scored group, the model, the
// incumbent and the batch-spreading buffers, allocated once per search so
// that score — which PSO, the random pool and NSGA-II (once per objective)
// push thousands of candidates through — allocates nothing.
type acqSearch struct {
	st    *state
	task  int
	model surrogate.Model
	ws    surrogate.Workspace
	yBest float64
	avoid [][]float64 // normalized points to damp the acquisition near
	un    []float64

	slots          [scoreSlots]candidate
	pts            [scoreSlots][]float64 // the group's feasible model points, in slot order
	at             [scoreSlots]int       // the slot each of pts came from
	mean, variance [scoreSlots]float64
}

func (st *state) newAcqSearch(task int, model surrogate.Model, ws surrogate.Workspace, fs *featureScale, yBest float64, avoid [][]float64) *acqSearch {
	a := &acqSearch{
		st: st, task: task, model: model, ws: ws, yBest: yBest, avoid: avoid,
		un: make([]float64, st.p.Tuning.Dim()),
	}
	for k := range a.slots {
		a.slots[k] = st.newCandidate(task, fs)
	}
	return a
}

// score writes the acquisition at each normalized candidate us[j] into
// out[j], to minimize; infeasible candidates score +Inf. Candidates go in
// groups of scoreSlots, each group's feasible ones through one
// PredictBatchInto, and every score is the bits a group of one gives.
//
//gptlint:hotpath
func (a *acqSearch) score(us [][]float64, out []float64) {
	for len(us) > 0 {
		k := min(len(us), scoreSlots)
		m := 0
		for j, u := range us[:k] {
			out[j] = math.Inf(1)
			if pt, ok := a.slots[j].point(u); ok {
				a.pts[m], a.at[m] = pt, j
				m++
			}
		}
		a.model.PredictBatchInto(a.ws, a.task, a.pts[:m], a.mean[:m], a.variance[:m])
		for g, j := range a.at[:m] {
			out[j] = a.damped(a.slots[j].xNat, a.mean[g], a.variance[g])
		}
		us, out = us[k:], out[k:]
	}
}

// damped is the acquisition of the posterior (mu, v) at native candidate
// xNat, damped near the avoid points.
//
//gptlint:hotpath
func (a *acqSearch) damped(xNat []float64, mu, v float64) float64 {
	const penaltyRadius = 0.15
	score := a.st.acquisition(mu, v, a.yBest)
	if len(a.avoid) > 0 && score < 0 {
		a.st.p.Tuning.NormalizeInto(a.un, xNat)
		damp := 1.0
		for _, p := range a.avoid {
			d := 0.0
			for dIdx := range p {
				diff := a.un[dIdx] - p[dIdx]
				d += diff * diff
			}
			d = math.Sqrt(d) / penaltyRadius
			if d < 1 {
				damp *= d
			}
		}
		score *= damp
	}
	return score
}

// searchOne maximizes the acquisition for task i with PSO, seeding the
// swarm with the incumbent best configuration, damping near the avoid
// points (batch spreading). It returns a native configuration, avoiding
// exact duplicates of already-evaluated points.
func (st *state) searchOne(i int, model surrogate.Model, ws surrogate.Workspace, tv func(float64) float64, fs *featureScale, avoid [][]float64, slot int) []float64 {
	yBest := math.Inf(1)
	bestIdx := 0
	for j, y := range st.Y[i] {
		if v := tv(y[0]); v < yBest {
			yBest = v
			bestIdx = j
		}
	}
	rng := rng.New(st.opts.Seed, rng.Search, uint64(i), uint64(st.minSamples()), uint64(slot))
	dim := st.p.Tuning.Dim()
	ev := st.newAcqSearch(i, model, ws, fs, yBest, avoid)
	params := st.opts.Search
	// Clone before appending: params.Seeds shares its backing array with
	// the caller's Options.Search.Seeds, and searchOne runs concurrently
	// across tasks — appending in place would race on (and bleed one
	// task's incumbent into) the shared array whenever it has spare
	// capacity.
	seeds := make([][]float64, len(params.Seeds), len(params.Seeds)+1)
	copy(seeds, params.Seeds)
	params.Seeds = append(seeds, st.p.Tuning.Normalize(st.X[i][bestIdx]))
	res := opt.PSOBatch(ev.score, dim, params, rng)
	// Hybrid search: PSO explores the continuous relaxation well, but
	// categorical/integer dimensions make the acquisition piecewise
	// constant; a scored pool of random feasible candidates covers the
	// discrete combinations PSO's rounding can miss. Keep whichever wins.
	// The pool's 8·dim+32 candidates are scored a group of scoreSlots at a
	// time (the count is a multiple of four), then compared in draw order.
	bestU := res.X
	bestScore := res.F
	// One group of candidate buffers for the whole pool, swapped with bestU
	// on improvement instead of allocating per candidate.
	cands := make([][]float64, scoreSlots)
	for k := range cands {
		cands[k] = make([]float64, dim)
	}
	scores := make([]float64, scoreSlots)
	for c := 0; c < 8*dim+32; c += scoreSlots {
		for _, cand := range cands {
			for d := range cand {
				cand[d] = rng.Float64()
			}
		}
		ev.score(cands, scores)
		for k, s := range scores {
			if s < bestScore {
				bestScore = s
				bestU, cands[k] = cands[k], bestU
			}
		}
	}
	xNat := st.p.Tuning.Denormalize(bestU)
	if !st.p.Tuning.FeasibleInto(ev.slots[0].feas, xNat) || containsConfig(st.X[i], xNat) || containsConfig(avoidNative(st, avoid), xNat) {
		if pts, err := sample.FeasibleUniform(st.p.Tuning, 1, rng); err == nil {
			return pts[0]
		}
	}
	return xNat
}

// avoidNative denormalizes the avoid list for duplicate checks.
func avoidNative(st *state, avoid [][]float64) [][]float64 {
	out := make([][]float64, len(avoid))
	for i, a := range avoid {
		out[i] = st.p.Tuning.Denormalize(a)
	}
	return out
}
