package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/gptune"
	"repro/gptune/client"
	"repro/internal/bench"
	"repro/internal/mpx"
	"repro/internal/sample"
)

// closedReadEvery: on serve_closed one operation in this many is a History +
// Best read of the study being driven.
const closedReadEvery = 16

// remoteStudy is a study as the load generator knows it: the spec it sends
// and the scenario it evaluates client-side.
type remoteStudy struct {
	spec     client.StudySpec
	scenario *bench.Scenario
	st       *tuneStudy // the same study as an in-process problem (checks, replay)
}

// scenarioProblem resolves a registered scenario and its default problem.
func scenarioProblem(name string) (*bench.Scenario, *gptune.Problem, error) {
	sc, err := bench.Get(name)
	if err != nil {
		return nil, nil, err
	}
	prob, err := sc.Problem(nil)
	return sc, prob, err
}

// newRemoteStudy is study number idx of a workload: the named scenario on
// the given tasks, with the engine seed derived from the run's seed.
func newRemoteStudy(seed int64, name, scenario string, idx int, tasks [][]float64, opts client.OptionsSpec) (*remoteStudy, error) {
	sc, prob, err := scenarioProblem(scenario)
	if err != nil {
		return nil, err
	}
	opts.Seed = seed*1000 + int64(idx)
	spec := client.StudySpec{Name: name, Scenario: scenario, Tasks: tasks, Options: opts}
	return &remoteStudy{spec: spec, scenario: sc, st: &tuneStudy{
		id: name, scenario: sc, problem: prob, tasks: tasks,
		opts: optionsOf(opts),
	}}, nil
}

// closedStudy is study idx of the serve_closed shape, which the warm-ups and
// the wire measurements reuse under other name prefixes: a cheap
// random-forest study that spends nine tenths of its budget in the sampling
// phase, so nearly every request is HTTP + JSON + router hop + engine mutex
// + WAL append, with a handful of rf generations keeping that seam visible.
// Analytical tasks stay in t ∈ [0, 1.5]: there the known optimum is a cheap
// grid search and sits well away from zero (0.2 to 0.42), so "within 5 % of
// the optimum" means something.
func closedStudy(e *env, prefix string, idx int) (*remoteStudy, error) {
	const tasks = 2
	eps := 40
	if e.smoke {
		eps = 10
	}
	rng := rand.New(rand.NewSource(e.seed*7919 + int64(idx)))
	ts := make([][]float64, tasks)
	for i, u := range sample.LatinHypercube(tasks, 1, rng) {
		ts[i] = []float64{1.5 * u[0]}
	}
	return newRemoteStudy(e.seed, fmt.Sprintf("%s-%d-%04d", prefix, e.seed, idx), "analytical", idx, ts,
		client.OptionsSpec{EpsTot: eps, InitFraction: 0.9, Surrogate: "rf"})
}

// timedRead is one read operation: History, then Best.
func timedRead(e *env, lg *driveLog, c *client.Client, id string, root int) (got []client.TaskHistory, err error) {
	_, err = lg.timed(e, "read", id, root, 0, func() (err error) {
		if got, err = c.History(e.ctx, id); err == nil {
			_, err = c.Best(e.ctx, id)
		}
		return err
	})
	return got, err
}

// driveRemote drives one study to completion from a single closed-loop
// client: create, then suggest → evaluate (zero cost) → report until the
// server says done, with a History + Best read every readEvery operations
// and a final read that must return, bit for bit, what was reported.
func driveRemote(e *env, lg *driveLog, c *client.Client, rs *remoteStudy, readEvery int) (*history, error) {
	id := rs.spec.Name
	root := e.rec.Start("study", id, -1)
	defer e.rec.End(root)

	if _, err := lg.timed(e, "create", id, root, 0, func() error { return c.Create(e.ctx, rs.spec) }); err != nil {
		return nil, fmt.Errorf("%s: create: %w", id, err)
	}
	tasks := len(rs.spec.Tasks)
	hist := newHistory(tasks)
	track := lg.newTracker(tasks, rs.st.initPerTask())

	born, free := time.Now(), time.Now()
	for ops := 1; ; ops++ {
		generation := track.generating()
		if ops%32 == 1 {
			e.probe.sample() // ≈ 2 % of the client's time
		}
		var sg client.Suggestion
		op, err := lg.timed(e, "suggest", id, root, time.Since(free), func() (err error) {
			sg, err = c.Suggest(e.ctx, id, -1)
			return err
		})
		if errors.Is(err, client.ErrDone) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%s: suggest: %w", id, err)
		}
		lg.suggested(op.end().Sub(free), op.d, generation)
		track.suggestedAt(op.end())

		h := e.rec.Start("evaluate", id, root)
		if why := inDomain(rs.st.problem.Tuning, sg.X); why != "" {
			lg.reject(fmt.Sprintf("%s: suggestion %d for task %d %s", id, sg.ID, sg.Task, why))
		}
		y, err := rs.st.problem.Objective(rs.spec.Tasks[sg.Task], sg.X)
		e.rec.End(h)
		if err != nil {
			return nil, fmt.Errorf("%s: objective: %w", id, err)
		}

		if op, err = lg.timed(e, "report", id, root, 0, func() error { return c.Report(e.ctx, id, sg.ID, y) }); err != nil {
			return nil, fmt.Errorf("%s: report: %w", id, err)
		}
		hist.add(sg.Task, sg.X, y)
		track.reported(op.end())
		if readEvery > 0 && ops%readEvery == 0 {
			if _, err := timedRead(e, lg, c, id, root); err != nil {
				return nil, fmt.Errorf("%s: read: %w", id, err)
			}
		}
		free = time.Now()
	}
	lg.evaluatorDone(time.Since(born))

	got, err := timedRead(e, lg, c, id, root)
	if err != nil {
		return nil, fmt.Errorf("%s: final read: %w", id, err)
	}
	checkRemoteHistory(lg, rs, hist, got)
	lg.studyDone()
	return hist, nil
}

// checkRemoteHistory is the per-study correctness gate of the service
// workloads: the budget was committed exactly, and the history the server
// hands back equals what the generator reported under math.Float64bits.
func checkRemoteHistory(lg *driveLog, rs *remoteStudy, hist *history, got []client.TaskHistory) {
	id := rs.spec.Name
	if len(got) != len(hist.X) {
		lg.problem(fmt.Sprintf("%s: history has %d tasks, want %d", id, len(got), len(hist.X)))
		return
	}
	gx, gy := make([][][]float64, len(got)), make([][][]float64, len(got))
	for i, th := range got {
		gx[i], gy[i] = th.X, th.Y
		if len(th.Y) != rs.spec.Options.EpsTot {
			lg.problem(fmt.Sprintf("%s: task %d committed %d evaluations, want %d", id, i, len(th.Y), rs.spec.Options.EpsTot))
		}
	}
	if !sameBits(gx, hist.X) || !sameBits(gy, hist.Y) {
		lg.problem(id + ": history fetched over HTTP differs from what was reported")
	}
}

func runServeClosed(e *env) (*outcome, error) {
	cl, setups, err := timedSetups(e, setupReps(e),
		func() (*served, error) { return setupService(e, 0, e.nproc) },
		(*served).teardown)
	if err != nil {
		return nil, err
	}
	drained := false
	defer func() {
		if !drained {
			cl.kill()
		}
	}()
	c := cl.c

	lg := &driveLog{}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		// The first few studies are kept for the history digest, the
		// quality figures and the engine replay; slot = study number.
		sampled [16]*remoteStudy
		hists   [16]*history
	)
	from, start, cpu0 := e.probe.mark(), time.Now(), selfCPUSeconds()
	for w := 0; w < e.nproc; w++ {
		mpx.Go(&wg, func() {
			for time.Since(start).Seconds() < e.seconds && e.ctx.Err() == nil {
				idx := int(next.Add(1) - 1)
				rs, err := closedStudy(e, "closed", idx)
				var hist *history
				if err == nil {
					hist, err = driveRemote(e, lg, c, rs, closedReadEvery)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil && idx < len(sampled) {
					sampled[idx], hists[idx] = rs, hist
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		})
	}
	wg.Wait()
	run, genCPUS := phase{seconds: time.Since(start).Seconds(), from: from, to: e.probe.mark()}, selfCPUSeconds()-cpu0
	if firstErr != nil {
		return nil, firstErr
	}

	cpuS, rssMB, derr := cl.drain()
	drained = true
	run.cpuShare = cpuShareOf(cpuS+genCPUS, run.seconds, e.nproc)
	out := lg.outcome(e, setups, run, cpuS, rssMB)
	if derr != nil {
		out.problems = append(out.problems, derr.Error())
	}
	out.hashes = []string{hists[0].hash()} // study 0 always runs: a worker takes it first
	if e.rec == nil {
		return out, nil
	}
	var q quality
	var replay []*remoteStudy
	for i, rs := range sampled {
		if rs == nil {
			continue
		}
		q.addStudy(rs.scenario, rs.spec.Tasks, hists[i])
		if len(replay) < 4 {
			replay = append(replay, rs)
		}
	}
	split, walNs, err := replaySplit(e, replay, lg.studies)
	if err != nil {
		return nil, err
	}
	out.addTraced(e, lg, split, walNs, &q)
	return out, nil
}
