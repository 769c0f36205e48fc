package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/benchmark/sched"
	"repro/gptune"
	"repro/gptune/client"
	"repro/internal/ring"
)

// pacedSizes size serve_paced.
type pacedSizes struct {
	studies, tasks, eps int
	initFraction        float64
	evalMedian          time.Duration // client-side evaluation time, log-normal median
	sigma               float64       // log-normal shape
	stragglerFrac       float64       // share of evaluations that take stragglerMult × as long
	stragglerMult       float64
	repoll              time.Duration // a suggest 409 reschedules the evaluator's next poll this much later
	readEvery           int           // every readEvery-th evaluation is followed by a History + Best read
}

// evalDurations returns the evaluation times of the evaluator pinned to
// task (of tasks) for n evaluations, the first init of them in the free-
// running sampling phase. The ordinary ones are the stratified sample of the
// log-normal, shuffled by rng — every evaluator sleeps the same total, so
// seeds differ in order, not in luck. The stragglers sit on a fixed lattice
// over the search phase, staggered by task so that no two evaluators of a
// study straggle in the same batch: every run pays for the same number of
// straggler-stalled batches, which is what dominates evaluator idle time.
func evalDurations(n, init, task, tasks int, s pacedSizes, rng *rand.Rand) []time.Duration {
	stragglers := int(math.Round(s.stragglerFrac * float64(n)))
	if n-init < stragglers*tasks {
		stragglers = 0 // smoke sizes: no room for the lattice
	}
	slow := make(map[int]bool, stragglers)
	for k := 0; k < stragglers; k++ {
		slow[init+(k*tasks+task)*(n-init)/(stragglers*tasks)] = true
	}
	m := n - stragglers
	normal := make([]time.Duration, m)
	for k := range normal {
		z := math.Sqrt2 * math.Erfinv(2*(float64(k)+0.5)/float64(m)-1)
		normal[k] = time.Duration(float64(s.evalMedian) * math.Exp(s.sigma*z))
	}
	rng.Shuffle(m, func(i, j int) { normal[i], normal[j] = normal[j], normal[i] })
	out := make([]time.Duration, 0, n)
	for k := 0; k < n; k++ {
		if slow[k] {
			out = append(out, time.Duration(float64(s.evalMedian)*s.stragglerMult))
			continue
		}
		out = append(out, normal[0])
		normal = normal[1:]
	}
	return out
}

// evaluator is one virtual evaluator: pinned to one task of one study, it
// polls for that task's next configuration, "runs" it for a seeded time,
// reports, and polls again. Its state only ever changes inside the one
// scheduled operation that holds it.
type evaluator struct {
	study *pacedStudy
	task  int
	durs  []time.Duration
	next  int       // index of the next evaluation
	born  time.Time // first poll due
	free  time.Time // when it last became free: waits are timed from here
	sg    client.Suggestion
	y     []float64
	hasSg bool // a suggestion is being evaluated; the scheduled op is its report
}

type pacedStudy struct {
	rs    *remoteStudy
	track *batchTracker
	root  int // span handle

	mu   sync.Mutex
	hist *history
	left int // evaluators still running
}

func runServePaced(e *env) (*outcome, error) {
	sizes := pacedSizes{
		studies: 4, tasks: 3, eps: 24, initFraction: 0.25,
		evalMedian: 300 * time.Millisecond, sigma: 0.25, stragglerFrac: 0.1, stragglerMult: 4,
		repoll: 25 * time.Millisecond, readEvery: 8,
	}
	if e.smoke {
		sizes.studies, sizes.eps, sizes.evalMedian, sizes.readEvery = 2, 8, 20*time.Millisecond, 4
	}
	// One scheduler worker and one connection per evaluator: evaluators are
	// independent users, and a poll that sits out a replica's fit must not
	// hold up anybody else's (with nproc workers the generator ran 130 ms
	// late at p99; the workers only ever block on the network, and
	// GOMAXPROCS still caps what runs). Retries off: a 409 comes straight
	// back and the scheduler, not the client library, decides when the
	// evaluator polls again.
	workers := sizes.studies * sizes.tasks
	cl, setups, err := timedSetups(e, setupReps(e),
		func() (*served, error) { return setupService(e, -1, workers) },
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

	// One task set for all studies (the gemm optimum is a two-second
	// enumeration per task; studies differ in their engine seed), and study
	// names picked so rendezvous placement puts the same number on each
	// replica.
	_, gemm, err := scenarioProblem("gemm")
	if err != nil {
		return nil, err
	}
	tasks, err := gptune.SampleTasks(gemm, sizes.tasks, e.seed)
	if err != nil {
		return nil, err
	}
	names := balancedNames(ring.New(cl.replicaURLs()...), fmt.Sprintf("paced-%d", e.seed), sizes.studies)

	lg := &driveLog{}
	q := sched.NewQueue[*evaluator]()
	var studies []*pacedStudy
	from, start, cpu0 := e.probe.mark(), time.Now(), selfCPUSeconds()
	for k, name := range names {
		rs, err := newRemoteStudy(e.seed, name, "gemm", k, tasks, client.OptionsSpec{
			EpsTot: sizes.eps, InitFraction: sizes.initFraction, Async: true,
		})
		if err != nil {
			return nil, err
		}
		ps := &pacedStudy{rs: rs, track: lg.newTracker(sizes.tasks, rs.st.initPerTask()), hist: newHistory(sizes.tasks), left: sizes.tasks}
		ps.root = e.rec.Start("study", name, -1)
		if _, err := lg.timed(e, "create", name, ps.root, 0, func() error { return c.Create(e.ctx, rs.spec) }); err != nil {
			return nil, fmt.Errorf("%s: create: %w", name, err)
		}
		studies = append(studies, ps)
		for i := 0; i < sizes.tasks; i++ {
			rng := rand.New(rand.NewSource(e.seed*104729 + int64(k*sizes.tasks+i)))
			now := time.Now()
			q.Push(now, &evaluator{study: ps, task: i, durs: evalDurations(sizes.eps, rs.st.initPerTask(), i, sizes.tasks, sizes, rng), born: now, free: now})
		}
	}

	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil || e.ctx.Err() != nil
	}
	sched.Run(q, workers, func(ev *evaluator, due time.Time, late time.Duration) {
		if failed() {
			return // abandon the chain: the queue drains and Run returns
		}
		if err := ev.step(e, lg, c, q, sizes, late); err != nil {
			fail(err)
		}
	})
	run, genCPUS := phase{seconds: time.Since(start).Seconds(), from: from, to: e.probe.mark()}, selfCPUSeconds()-cpu0
	if firstErr != nil {
		return nil, firstErr
	}
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}

	var q5 quality
	var hists []*history
	for _, ps := range studies {
		got, err := c.History(e.ctx, ps.rs.spec.Name)
		if err != nil {
			return nil, fmt.Errorf("%s: final history: %w", ps.rs.spec.Name, err)
		}
		checkRemoteHistory(lg, ps.rs, ps.hist, got)
		hists = append(hists, ps.hist)
	}
	cpuS, rssMB, derr := cl.drain()
	drained = true
	// An evaluator's clock is mostly its own sleep: the CPU share, and with
	// it the slowdown correction, comes to a few per cent.
	run.cpuShare = cpuShareOf(cpuS+genCPUS, run.seconds, workers)
	out := lg.outcome(e, setups, run, cpuS, rssMB)
	if derr != nil {
		out.problems = append(out.problems, derr.Error())
	}
	out.hashes = hashesOf(hists[:1])
	if e.rec == nil {
		return out, nil
	}
	sample := make([]*remoteStudy, 0, 2)
	for k, ps := range studies {
		q5.addStudy(ps.rs.scenario, ps.rs.spec.Tasks, ps.hist)
		if k < 2 {
			sample = append(sample, ps.rs)
		}
	}
	split, walNs, err := replaySplit(e, sample, len(studies))
	if err != nil {
		return nil, err
	}
	out.addTraced(e, lg, split, walNs, &q5)
	return out, nil
}

// balancedNames returns n study names prefix-0, prefix-1, … skipping
// candidates whose rendezvous owner already has its share, so every node
// of r owns n/len(nodes) of them.
func balancedNames(r *ring.Ring, prefix string, n int) []string {
	share := (n + r.Len() - 1) / r.Len()
	owned := map[string]int{}
	var names []string
	for j := 0; len(names) < n; j++ {
		name := fmt.Sprintf("%s-%d", prefix, j)
		owner, _ := r.Owner(name)
		if owned[owner] >= share {
			continue
		}
		owned[owner]++
		names = append(names, name)
	}
	return names
}

// step runs the evaluator's scheduled operation — report the finished
// evaluation if there is one, then poll for the next configuration — and
// schedules what follows: the end of the new evaluation, a re-poll after a
// 409, or nothing once the study is done.
func (ev *evaluator) step(e *env, lg *driveLog, c *client.Client, q *sched.Queue[*evaluator], s pacedSizes, late time.Duration) error {
	ps := ev.study
	id := ps.rs.spec.Name
	if ev.hasSg {
		op, err := lg.timed(e, "report", id, ps.root, late, func() error { return c.Report(e.ctx, id, ev.sg.ID, ev.y) })
		if err != nil {
			return fmt.Errorf("%s: report: %w", id, err)
		}
		ps.mu.Lock()
		ps.hist.add(ev.sg.Task, ev.sg.X, ev.y)
		ps.mu.Unlock()
		ps.track.reported(op.end())
		e.probe.sample()
		ev.hasSg, late = false, 0
		if s.readEvery > 0 && ev.next%s.readEvery == 0 {
			if _, err := timedRead(e, lg, c, id, ps.root); err != nil {
				return fmt.Errorf("%s: read: %w", id, err)
			}
		}
		ev.free = time.Now()
	}

	generation := ps.track.generating()
	var sg client.Suggestion
	op, err := lg.timed(e, "suggest", id, ps.root, late, func() (err error) {
		sg, err = c.Suggest(e.ctx, id, ev.task)
		return err
	})
	now := op.end()
	switch {
	case errors.Is(err, client.ErrNonePending):
		lg.conflict()
		q.Push(now.Add(s.repoll), ev)
		return nil
	case errors.Is(err, client.ErrDone):
		lg.evaluatorDone(now.Sub(ev.born))
		ps.mu.Lock()
		ps.left--
		last := ps.left == 0
		ps.mu.Unlock()
		if last {
			e.rec.End(ps.root)
			lg.studyDone()
		}
		return nil
	case err != nil:
		return fmt.Errorf("%s: suggest: %w", id, err)
	}
	lg.suggested(now.Sub(ev.free), op.d, generation)
	ps.track.suggestedAt(now)
	if sg.Task != ev.task {
		lg.reject(fmt.Sprintf("%s: asked for task %d, got a suggestion for task %d", id, ev.task, sg.Task))
	}
	if why := inDomain(ps.rs.st.problem.Tuning, sg.X); why != "" {
		lg.reject(fmt.Sprintf("%s: suggestion %d for task %d %s", id, sg.ID, sg.Task, why))
	}
	y, err := ps.rs.st.problem.Objective(ps.rs.spec.Tasks[sg.Task], sg.X)
	if err != nil {
		return fmt.Errorf("%s: objective: %w", id, err)
	}
	ev.sg, ev.y, ev.hasSg = sg, y, true
	dur := ev.durs[ev.next%len(ev.durs)]
	ev.next++
	e.rec.Add("evaluate", id, ps.root, now, dur)
	q.Push(now.Add(dur), ev)
	return nil
}
