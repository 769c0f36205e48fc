package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/benchmark/stats"
	"repro/gptune"
	"repro/internal/bench"
)

// driveLog is what a workload's load generator records while it drives
// studies: latency samples per operation kind, the wait every evaluator
// spent between becoming free and holding its next suggestion, generator
// lateness, operation outcomes, and per-study batch boundaries (from which
// barrier waits and generation times follow). All four workloads fill the
// same log, so every metric derived from it means the same thing on each.
// Safe for concurrent use.
type driveLog struct {
	mu sync.Mutex

	waitMs []float64 // evaluator free → suggestion in hand, per suggestion obtained
	// latMs holds one sample per attempted operation, by kind: "suggest"
	// (a 409 poll included), "report", "read" (one History + Best pair;
	// library: Result + Best) and "create".
	latMs  map[string][]float64
	lateMs []float64 // op start − op due

	genMs     []float64 // batch's last report → first suggestion of the next batch
	barrierMs []float64 // a report → its batch's last report
	fastMs    []float64 // suggest attempts that did not wait on a generation

	attempted, failed int
	conflicts         int // expected suggest 409s; never failures
	evals             int // acknowledged reports
	studies           int

	busyS, genBusyS float64 // client time inside operations; inside generation suggests
	waitS, lifeS    float64 // Σ evaluator wait; Σ evaluator lifetime

	problems []string
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (l *driveLog) problem(msg string) {
	l.mu.Lock()
	if len(l.problems) < 20 {
		l.problems = append(l.problems, msg)
	}
	l.mu.Unlock()
}

// asError turns the correctness problems of a drive that is not the
// workload's own (a warm-up, a wire measurement) into an error.
func (l *driveLog) asError(what string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.problems) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %s", what, strings.Join(l.problems, "; "))
}

// reject records a suggestion the tuner should never have made (infeasible,
// out of bounds, non-finite, for the wrong task): a failed operation of its
// own, beside the suggest that delivered it.
func (l *driveLog) reject(msg string) {
	l.problem(msg)
	l.mu.Lock()
	l.attempted++
	l.failed++
	l.mu.Unlock()
}

// op counts one attempted operation and its client-busy time.
func (l *driveLog) op(kind string, d, late time.Duration, failed bool) {
	l.mu.Lock()
	l.attempted++
	if failed {
		l.failed++
	}
	l.busyS += d.Seconds()
	l.lateMs = append(l.lateMs, ms(late))
	if l.latMs == nil {
		l.latMs = map[string][]float64{}
	}
	l.latMs[kind] = append(l.latMs[kind], ms(d))
	l.mu.Unlock()
}

// timedOp is one finished operation: its span handle, when it started and
// how long it took.
type timedOp struct {
	span  int
	start time.Time
	d     time.Duration
}

func (t timedOp) end() time.Time { return t.start.Add(t.d) }

// timed runs fn as one operation of the given kind on study id: a span
// under parent when tracing is on, a latency sample and an outcome in the
// log. The engine's two sentinel answers — budget exhausted, nothing
// pending — are answers, not failures.
func (l *driveLog) timed(e *env, kind, id string, parent int, late time.Duration, fn func() error) (timedOp, error) {
	t := timedOp{span: e.rec.Start(kind, id, parent), start: time.Now()}
	err := fn()
	t.d = time.Since(t.start)
	e.rec.End(t.span)
	l.op(kind, t.d, late, err != nil && !errors.Is(err, gptune.ErrDone) && !errors.Is(err, gptune.ErrNonePending))
	return t, err
}

func (l *driveLog) conflict() {
	l.mu.Lock()
	l.conflicts++
	l.mu.Unlock()
}

// suggested records a suggestion obtained after wait (measured from when
// its evaluator became free). generation says the attempt had to wait for,
// or run, a batch generation; d is that attempt's own duration.
func (l *driveLog) suggested(wait, d time.Duration, generation bool) {
	l.mu.Lock()
	l.waitMs = append(l.waitMs, ms(wait))
	l.waitS += wait.Seconds()
	if generation {
		l.genBusyS += d.Seconds()
	} else {
		l.fastMs = append(l.fastMs, ms(d))
	}
	l.mu.Unlock()
}

func (l *driveLog) evaluatorDone(life time.Duration) {
	l.mu.Lock()
	l.lifeS += life.Seconds()
	l.mu.Unlock()
}

func (l *driveLog) studyDone() {
	l.mu.Lock()
	l.studies++
	l.mu.Unlock()
}

// batchTracker follows one study's batch structure from the outside: the
// first batch holds tasks×init evaluations, every later one a single
// evaluation per task. It turns report and suggestion times into barrier
// waits and generation times. Guarded by the owning driveLog's mutex.
type batchTracker struct {
	log        *driveLog
	tasks      int
	size       int         // evaluations in the current batch
	reports    []time.Time // report completion times of the current batch
	lastReport time.Time   // completion of the previous batch's last report
	awaiting   bool        // previous batch complete, next suggestion not yet seen
}

func (l *driveLog) newTracker(tasks, initPerTask int) *batchTracker {
	return &batchTracker{log: l, tasks: tasks, size: tasks * initPerTask}
}

// reported notes an acknowledged report at t.
func (b *batchTracker) reported(t time.Time) {
	l := b.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evals++
	b.reports = append(b.reports, t)
	if len(b.reports) < b.size {
		return
	}
	for _, r := range b.reports {
		l.barrierMs = append(l.barrierMs, ms(t.Sub(r)))
	}
	b.reports = b.reports[:0]
	b.size = b.tasks
	b.lastReport = t
	b.awaiting = true
}

// generating reports whether the study sits between a completed batch and
// the first suggestion of the next one — a suggest attempt made now waits
// for (sync) or polls on (async) a generation.
func (b *batchTracker) generating() bool {
	b.log.mu.Lock()
	defer b.log.mu.Unlock()
	return b.awaiting
}

// suggestedAt notes a suggestion in hand at t; the first one after a batch
// completed closes that batch's generation interval.
func (b *batchTracker) suggestedAt(t time.Time) {
	l := b.log
	l.mu.Lock()
	if b.awaiting {
		l.genMs = append(l.genMs, ms(t.Sub(b.lastReport)))
		b.awaiting = false
	}
	l.mu.Unlock()
}

func median(xs []float64) float64 { return stats.Percentile(stats.Sorted(xs), 50) }

func pct(xs []float64, p float64) float64 { return stats.Percentile(stats.Sorted(xs), p) }

// fracBelow returns the share of xs strictly below limit (1 when empty, so
// a workload with no such operations does not read as a violation).
func fracBelow(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	n := 0
	for _, x := range xs {
		if x < limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// history is one study's evaluations per task, in commit order — what the
// generator reported and what the tuner must hand back.
type history struct {
	X [][][]float64 // [task][eval][dim]
	Y [][][]float64 // [task][eval][output]
}

func newHistory(tasks int) *history {
	return &history{X: make([][][]float64, tasks), Y: make([][][]float64, tasks)}
}

func (h *history) add(task int, x, y []float64) {
	h.X[task] = append(h.X[task], x)
	h.Y[task] = append(h.Y[task], y)
}

func (h *history) evals() int {
	n := 0
	for _, t := range h.Y {
		n += len(t)
	}
	return n
}

// hash digests every coordinate and output bit-for-bit, so two histories
// hash equal exactly when they are math.Float64bits-identical.
func (h *history) hash() string {
	d := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.Write(buf[:])
	}
	for t := range h.X {
		put(uint64(len(h.X[t])))
		for j := range h.X[t] {
			for _, v := range h.X[t][j] {
				put(math.Float64bits(v))
			}
			for _, v := range h.Y[t][j] {
				put(math.Float64bits(v))
			}
		}
	}
	return hex.EncodeToString(d.Sum(nil)[:8])
}

// sameBits reports whether two task-major evaluation lists are identical
// under math.Float64bits.
func sameBits(a, b [][][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if len(a[t]) != len(b[t]) {
			return false
		}
		for j := range a[t] {
			if len(a[t][j]) != len(b[t][j]) {
				return false
			}
			for k := range a[t][j] {
				if math.Float64bits(a[t][j][k]) != math.Float64bits(b[t][j][k]) {
					return false
				}
			}
		}
	}
	return true
}

// quality is the tuning outcome of a set of (study, task) pairs against
// their known optima: how many evaluations it took to get within 5 % and
// how far the final best is from the optimum.
type quality struct {
	evalsTo5 []float64 // per task: first evaluation index (1-based) within 5 %, budget+1 if never
	regret   []float64 // per task: (best − optimum)/|optimum| × 100 at budget
	// optima memoizes Scenario.Optimum per (scenario, task): a workload's
	// studies share task sets, and the gemm optimum is a two-second
	// enumeration.
	optima map[string]float64
}

// addStudy scores every task of a finished study whose scenario knows its
// optimum.
func (q *quality) addStudy(sc *bench.Scenario, tasks [][]float64, hist *history) {
	if sc.Optimum == nil {
		return
	}
	if q.optima == nil {
		q.optima = map[string]float64{}
	}
	for i, task := range tasks {
		key := fmt.Sprint(sc.Name, task)
		opt, ok := q.optima[key]
		if !ok {
			if opt, ok = sc.Optimum(task); !ok {
				continue
			}
			q.optima[key] = opt
		}
		q.addTask(hist.Y[i], opt)
	}
}

func (q *quality) addTask(ys [][]float64, optimum float64) {
	best := math.Inf(1)
	first := len(ys) + 1
	scale := math.Abs(optimum)
	for j, y := range ys {
		if y[0] < best {
			best = y[0]
		}
		if first > len(ys) && best-optimum <= 0.05*scale {
			first = j + 1
		}
	}
	q.evalsTo5 = append(q.evalsTo5, float64(first))
	q.regret = append(q.regret, (best-optimum)/scale*100)
}

func (q *quality) meanEvalsTo5() float64 { return stats.Mean(q.evalsTo5) }

func (q *quality) maxRegret() float64 {
	s := append([]float64(nil), q.regret...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	return s[len(s)-1]
}
