package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/gptune"
	"repro/internal/bench"
	_ "repro/internal/bench/all" // registers every scenario the workloads name
	"repro/internal/sample"
	"repro/internal/space"
)

// inDomain reports why native point x is not a legal member of sp: a
// coordinate outside its bounds, a fractional integer or category, a
// non-finite value, or a violated constraint. Empty means legal.
func inDomain(sp *space.Space, x []float64) string {
	if len(x) != sp.Dim() {
		return fmt.Sprintf("has %d coordinates, space has %d", len(x), sp.Dim())
	}
	for i, p := range sp.Params {
		v := x[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprintf("%s is non-finite", p.Name)
		}
		lo, hi := p.Lo, p.Hi
		if p.Kind == space.Categorical {
			lo, hi = 0, float64(len(p.Categories)-1)
		}
		if v < lo || v > hi {
			return fmt.Sprintf("%s=%v outside [%v, %v]", p.Name, v, lo, hi)
		}
		if p.Kind != space.Real && v != math.Trunc(v) {
			return fmt.Sprintf("%s=%v is not whole", p.Name, v)
		}
	}
	if !sp.Feasible(x) {
		return "violates a constraint"
	}
	return ""
}

// tuneStudy is one library tuning run: a scenario's problem, its tasks and
// the options handed to the engine.
type tuneStudy struct {
	id       string
	scenario *bench.Scenario
	problem  *gptune.Problem
	tasks    [][]float64
	opts     gptune.Options
}

func (s *tuneStudy) initPerTask() int {
	f := s.opts.InitFraction
	if f <= 0 || f >= 1 {
		f = 0.5
	}
	n := int(math.Round(float64(s.opts.EpsTot) * f))
	if n < 1 {
		n = 1
	}
	if n >= s.opts.EpsTot {
		n = s.opts.EpsTot - 1
	}
	return n
}

// phaseSplit is the engine's own modeling/search accounting summed over a
// drive, next to how many generations ran and how they modeled.
type phaseSplit struct {
	modelingS, searchS   float64
	wallS                float64 // the engine-side wall time the shares are taken of
	generations          int
	refits, appends      int
	suggestNs, observeNs []float64 // per-call engine latencies outside generations
}

// driveStudy runs one study through the step-wise engine exactly the way
// core.Run does — ask for the whole batch, evaluate it, report it back in
// canonical order — recording every operation in lg and, when e.rec is on,
// a span per operation with the engine's modeling/search split as children
// of the suggest span.
func driveStudy(e *env, lg *driveLog, st *tuneStudy, split *phaseSplit) (*history, error) {
	root := e.rec.Start("study", st.id, -1)
	defer e.rec.End(root)

	var eng *gptune.Engine
	if _, err := lg.timed(e, "create", st.id, root, 0, func() (err error) {
		eng, err = gptune.NewEngine(st.problem, st.tasks, st.opts)
		return err
	}); err != nil {
		return nil, err
	}

	hist := newHistory(len(st.tasks))
	track := lg.newTracker(len(st.tasks), st.initPerTask())
	born, free := time.Now(), time.Now()
	var prev gptune.PhaseStats
	searchGens := 0 // this study's model/search generations so far
	for {
		generation := track.generating()
		e.probe.sample()
		var suggs []gptune.Suggestion
		op, err := lg.timed(e, "suggest", st.id, root, time.Since(free), func() (err error) {
			suggs, err = eng.SuggestAll()
			return err
		})
		if err != nil {
			return nil, err
		}
		if len(suggs) == 0 {
			break
		}
		lg.suggested(op.end().Sub(free), op.d, generation)
		track.suggestedAt(op.end())
		if split != nil && generation {
			stats := eng.Result().Stats
			dm, ds := stats.Modeling-prev.Modeling, stats.Search-prev.Search
			prev = stats
			e.rec.Add("modeling", st.id, op.span, op.start, dm)
			e.rec.Add("search", st.id, op.span, op.start.Add(dm), ds)
			split.modelingS += dm.Seconds()
			split.searchS += ds.Seconds()
			split.generations++
			searchGens++
			if k := st.opts.RefitEvery; k <= 1 || (searchGens-1)%k == 0 {
				split.refits++
			} else {
				split.appends++
			}
		}

		h := e.rec.Start("evaluate", st.id, root)
		ys := make([][]float64, len(suggs))
		for k, sg := range suggs {
			if why := inDomain(st.problem.Tuning, sg.X); why != "" {
				lg.reject(fmt.Sprintf("%s: suggestion %d for task %d %s", st.id, sg.ID, sg.Task, why))
			}
			if ys[k], err = st.problem.Objective(st.tasks[sg.Task], sg.X); err != nil {
				e.rec.End(h)
				return nil, fmt.Errorf("%s: objective: %w", st.id, err)
			}
		}
		e.rec.End(h)

		for k, sg := range suggs {
			op, err := lg.timed(e, "report", st.id, root, 0, func() error { return eng.Observe(sg.ID, ys[k]) })
			if err != nil {
				return nil, err
			}
			hist.add(sg.Task, sg.X, ys[k])
			track.reported(op.end())
		}
		_, _ = lg.timed(e, "read", st.id, root, 0, func() error {
			res := eng.Result()
			for i := range res.Tasks {
				res.Tasks[i].Best()
			}
			return nil
		})
		free = time.Now()
	}
	lg.evaluatorDone(time.Since(born))
	lg.studyDone()

	res := eng.Result()
	got := newHistory(len(st.tasks))
	for i, tr := range res.Tasks {
		got.X[i], got.Y[i] = paidEvals(tr.X, st, len(hist.X[i])), paidEvals(tr.Y, st, len(hist.Y[i]))
		if n := len(hist.X[i]); n != st.opts.EpsTot {
			lg.problem(fmt.Sprintf("%s: task %d committed %d evaluations, want %d", st.id, i, n, st.opts.EpsTot))
		}
	}
	if !sameBits(got.X, hist.X) || !sameBits(got.Y, hist.Y) {
		lg.problem(st.id + ": engine history differs from what was reported")
	}
	return hist, nil
}

// paidEvals cuts the n evaluations a run paid for out of one task's engine
// history, which holds the initial batch, then the merged prior samples,
// then the search-phase evaluations.
func paidEvals(all [][]float64, st *tuneStudy, n int) [][]float64 {
	init, prior := st.initPerTask(), len(all)-n
	if prior <= 0 || init > n {
		return all
	}
	return append(append([][]float64(nil), all[:init]...), all[init+prior:]...)
}

// tuneSizes are the knobs that size a library workload.
type tuneSizes struct {
	delta, eps         int
	priorPerTask       int
	numStarts, maxIter int
	refitEvery         int
}

// tunePlan is a tune workload after set-up: the studies of one unit (run
// back to back, then again with the next unit's seed until the time budget
// is spent) and the prior the warm workload loaded.
type tunePlan struct {
	scenarios []*bench.Scenario
	problems  []*gptune.Problem
	tasks     [][][]float64
	prior     [][]gptune.PriorSample
	sizes     tuneSizes
	workers   int
}

// study builds study k of the given unit. A cold workload draws fresh
// tasks for every unit — modeling cost depends on the task, and a run that
// averages over ten task sets is steadier across seeds than one that
// repeats a single draw; a warm workload keeps the tasks its prior was
// evaluated on.
func (p *tunePlan) study(workload string, unit, k int, seed int64) (*tuneStudy, error) {
	s := p.sizes
	tasks := p.tasks[k]
	if s.priorPerTask == 0 && unit > 0 {
		var err error
		if tasks, err = gptune.SampleTasks(p.problems[k], s.delta, seed*1000+int64(unit*len(p.problems)+k)); err != nil {
			return nil, err
		}
	}
	return &tuneStudy{
		id:       fmt.Sprintf("%s-%s-u%d", workload, p.scenarios[k].Name, unit),
		scenario: p.scenarios[k],
		problem:  p.problems[k],
		tasks:    tasks,
		opts: gptune.Options{
			EpsTot: s.eps, Seed: seed*1000 + int64(unit), Workers: p.workers,
			NumStarts: s.numStarts, ModelMaxIter: s.maxIter, RefitEvery: s.refitEvery,
			Prior: p.prior[k],
		},
	}, nil
}

// setupTune resolves the scenarios, samples δ tasks each from the seed, for
// a warm workload evaluates priorPerTask feasible points per task, archives
// them in a history file and loads them back through the public LoadHistory
// + PriorFromHistory path, and drives one shrunken unit. Set-up time is
// therefore the time to the first finished study.
func setupTune(e *env, names []string, sizes tuneSizes) (*tunePlan, error) {
	p := &tunePlan{sizes: sizes, workers: e.nproc}
	for k, name := range names {
		sc, prob, err := scenarioProblem(name)
		if err != nil {
			return nil, err
		}
		tasks, err := gptune.SampleTasks(prob, sizes.delta, e.seed+int64(k))
		if err != nil {
			return nil, err
		}
		var prior []gptune.PriorSample
		if sizes.priorPerTask > 0 {
			db := gptune.NewHistory()
			for i, task := range tasks {
				xs, err := sample.FeasibleLHS(prob.Tuning, sizes.priorPerTask, rand.New(rand.NewSource(e.seed*31+int64(i))))
				if err != nil {
					return nil, err
				}
				for _, x := range xs {
					y, err := prob.Objective(task, x)
					if err != nil {
						return nil, err
					}
					db.Append(gptune.HistoryRecord{Problem: name, Task: task, Config: x, Outputs: y})
				}
			}
			path := filepath.Join(e.work, name+"-prior.json")
			if err := db.Save(path); err != nil {
				return nil, err
			}
			loaded, err := gptune.LoadHistory(path)
			if err != nil {
				return nil, err
			}
			prior = gptune.PriorFromHistory(loaded, name, tasks)
			if len(prior) != sizes.priorPerTask*len(tasks) {
				return nil, fmt.Errorf("loaded %d prior samples, wrote %d", len(prior), sizes.priorPerTask*len(tasks))
			}
			if err := os.Remove(path); err != nil {
				return nil, err
			}
		}
		p.scenarios = append(p.scenarios, sc)
		p.problems = append(p.problems, prob)
		p.tasks = append(p.tasks, tasks)
		p.prior = append(p.prior, prior)
	}
	return p, p.warmUp(e)
}

// warmUp drives every scenario of the plan once at ε_tot = 8 over every
// eighth prior sample, so the measured phase starts on a grown heap and
// code that has run.
func (p *tunePlan) warmUp(e *env) error {
	small := *p
	small.sizes.eps = 8
	small.prior = make([][]gptune.PriorSample, len(p.prior))
	for k, prior := range p.prior {
		for i := 0; i < len(prior); i += 8 {
			small.prior[k] = append(small.prior[k], prior[i])
		}
	}
	lg := &driveLog{}
	for k := range p.problems {
		st, err := small.study("warmup", 0, k, e.seed)
		if err != nil {
			return err
		}
		if _, err := driveStudy(e.untraced(), lg, st, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return lg.asError("warm-up")
}

// runTune is the measured phase of a library workload: units of studies
// run back to back until the time budget is spent (the unit in flight
// finishes), every unit with the next engine seed over the same tasks.
func runTune(e *env, workload string, names []string, sizes tuneSizes) (*outcome, error) {
	plan, setups, err := timedSetups(e, setupReps(e),
		func() (*tunePlan, error) { return setupTune(e, names, sizes) },
		func(*tunePlan) error { return nil })
	if err != nil {
		return nil, err
	}

	lg := &driveLog{}
	var split *phaseSplit
	if e.rec != nil {
		split = &phaseSplit{}
	}
	var firstUnit []*history
	var scored []scoredStudy
	var unitPeakMB []float64
	from, start, cpu0 := e.probe.mark(), time.Now(), selfCPUSeconds()
	for unit := 0; ; unit++ {
		// Peak RSS is taken per unit and the median reported: one run-long
		// watermark is wherever the collector happened to be on its worst
		// unit (10 % across seeds on a 15 MB heap), the median is not.
		resetPeakRSS()
		for k := range names {
			st, err := plan.study(workload, unit, k, e.seed)
			if err != nil {
				return nil, err
			}
			hist, err := driveStudy(e, lg, st, split)
			if err != nil {
				return nil, err
			}
			if unit == 0 {
				firstUnit = append(firstUnit, hist)
			}
			// The gemm optimum is a two-second enumeration per task: only
			// the traced run pays for it, and only for the first unit.
			if st.scenario.Name != "gemm" || (e.rec != nil && unit == 0) {
				scored = append(scored, scoredStudy{st.scenario, st.tasks, hist})
			}
		}
		unitPeakMB = append(unitPeakMB, selfPeakRSSMB())
		if time.Since(start).Seconds() >= e.seconds {
			break
		}
	}
	run, cpuS := phase{seconds: time.Since(start).Seconds(), from: from, to: e.probe.mark()}, selfCPUSeconds()-cpu0
	run.cpuShare = cpuShareOf(cpuS, run.seconds, 1)

	var q quality
	for _, sd := range scored {
		q.addStudy(sd.scenario, sd.tasks, sd.hist)
	}
	for _, r := range q.regret {
		if r > regretTolerancePct {
			lg.problem(fmt.Sprintf("%s: a task ended %.1f %% above its known optimum (tolerance %v %%)", workload, r, regretTolerancePct))
		}
	}
	out := lg.outcome(e, setups, run, cpuS, median(unitPeakMB))
	out.hashes = hashesOf(firstUnit)
	if e.rec == nil {
		return out, nil
	}

	// Traced run only: the same first unit through the batch driver must
	// reproduce the step-wise history bit for bit.
	for k := range names {
		st, err := plan.study(workload, 0, k, e.seed)
		if err != nil {
			return nil, err
		}
		res, err := gptune.Tune(st.problem, st.tasks, st.opts)
		if err != nil {
			return nil, err
		}
		ref := newHistory(len(st.tasks))
		for i, tr := range res.Tasks {
			ref.X[i], ref.Y[i] = paidEvals(tr.X, st, st.opts.EpsTot), paidEvals(tr.Y, st, st.opts.EpsTot)
		}
		if ref.hash() != firstUnit[k].hash() {
			out.problems = append(out.problems, fmt.Sprintf("%s: step-wise history %s differs from gptune.Tune history %s", st.id, firstUnit[k].hash(), ref.hash()))
		}
	}
	st, err := plan.study(workload, 0, 0, e.seed)
	if err != nil {
		return nil, err
	}
	replay, err := engineReplay(e, st)
	if err != nil {
		return nil, err
	}
	split.suggestNs, split.observeNs, split.wallS = replay.suggestNs, replay.observeNs, run.seconds
	out.addTraced(e, lg, split, replay.observeWalNs, &q)
	return out, nil
}

// regretTolerancePct is the correctness gate on tuning quality: a library
// run that ends this far above a task's known optimum is broken, not slow.
const regretTolerancePct = 60.0

type scoredStudy struct {
	scenario *bench.Scenario
	tasks    [][]float64
	hist     *history
}

func hashesOf(hs []*history) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = h.hash()
	}
	return out
}
