package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/surrogate"
)

// watchdog fails the test if body has not returned within a bound far above
// anything it does when nothing deadlocks.
func watchdog(t *testing.T, what string, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// observeAnalytical reports sg's true output (Errorf, not Fatalf: watchdog
// bodies call it off the test goroutine).
func observeAnalytical(t *testing.T, eng *Engine, tasks [][]float64, sg Suggestion) {
	t.Helper()
	if err := eng.Observe(sg.ID, []float64{paperObjective(tasks[sg.Task][0], sg.X[0])}); err != nil {
		t.Errorf("observe %d: %v", sg.ID, err)
	}
}

type answer struct {
	sg  Suggestion
	err error
}

// parkAsker asks for task from a goroutine of its own and returns the
// channel its answer arrives on, after giving it time to park and checking it
// has not been answered: a late goroutine makes the tests below weaker, never
// wrong.
func parkAsker(t *testing.T, ctx context.Context, eng *Engine, task int) <-chan answer {
	t.Helper()
	out := make(chan answer, 1)
	go func() {
		sg, err := eng.SuggestContext(ctx, task)
		out <- answer{sg, err}
	}()
	select {
	case a := <-out:
		t.Fatalf("asker for task %d was answered (%+v, %v) with its slot filled and the batch incomplete; want it parked", task, a.sg, a.err)
	case <-time.After(20 * time.Millisecond):
	}
	return out
}

func awaitAnswer(t *testing.T, out <-chan answer) answer {
	t.Helper()
	select {
	case a := <-out:
		return a
	case <-time.After(30 * time.Second):
		t.Fatal("parked asker was never woken")
		return answer{}
	}
}

// TestParkedAskersMatchSingleAskerBitwise is the determinism acceptance test
// for the wait: one evaluator per task, each parked in SuggestContext
// whenever its task's slot is filled, must produce the history AND the
// write-ahead log — every eval record and model snapshot, in canonical order
// — that one single-threaded Suggest(-1) driver produces. Who waits, and how,
// never decides what a batch is generated from.
func TestParkedAskersMatchSingleAskerBitwise(t *testing.T) {
	tasks := [][]float64{{0}, {1.5}, {3}}
	clock := func() time.Time { return time.Unix(1700000000, 0).UTC() }
	run := func(drive func(*Engine)) (*Result, []byte) {
		path := filepath.Join(t.TempDir(), "wal.json")
		cp, err := NewCheckpoint(path, CheckpointOptions{Problem: "analytical", Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(analyticalProblem(), tasks, Options{
			EpsTot: 8, Seed: 42, Workers: 2,
			Checkpoint: cp, Clock: clock,
		})
		if err != nil {
			t.Fatal(err)
		}
		drive(eng)
		eng.Quiesce()
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		res := eng.Result()
		if err := cp.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path + ".wal") // histdb.WAL's live log file
		if err != nil {
			t.Fatal(err)
		}
		return res, data
	}
	single, singleWAL := run(func(eng *Engine) { driveEngine(t, eng, tasks) })
	parked, parkedWAL := run(func(eng *Engine) {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		var wg sync.WaitGroup
		for task := range tasks {
			wg.Add(1)
			go func(task int) {
				defer wg.Done()
				for {
					sg, err := eng.SuggestContext(ctx, task)
					if errors.Is(err, ErrDone) {
						return
					}
					if err != nil {
						t.Errorf("task %d: suggest: %v", task, err)
						return
					}
					if err := eng.Observe(sg.ID, []float64{paperObjective(tasks[task][0], sg.X[0])}); err != nil {
						t.Errorf("task %d: observe: %v", task, err)
						return
					}
				}
			}(task)
		}
		wg.Wait()
	})
	requireBitwiseEqualHistories(t, "parked askers vs single asker", single, parked)
	if !bytes.Equal(singleWAL, parkedWAL) {
		t.Errorf("WAL bytes differ: single asker %d bytes, parked askers %d bytes", len(singleWAL), len(parkedWAL))
	}
}

// TestOnlyAnAskerWaitsOutAFit holds a fit in flight and checks everything
// that must not wait for it by construction: the fit is released only after
// the calls have returned, so one that waited would never return. An asker
// whose context ends gives up with ErrNonePending, the generation it started
// keeps running, and the next ask is handed its batch — one fit in all.
func TestOnlyAnAskerWaitsOutAFit(t *testing.T) {
	inner, err := surrogate.New("")
	if err != nil {
		t.Fatal(err)
	}
	tasks := [][]float64{{0}, {1.5}}
	var (
		fits    atomic.Int64
		once    sync.Once
		started = make(chan struct{})
		release = make(chan struct{})
	)
	eng, err := NewEngine(analyticalProblem(), tasks, Options{
		EpsTot: 4, Seed: 7, Workers: 1,
		fitterOverride: countingFitter{Fitter: inner, fits: &fits, hold: func() {
			once.Do(func() {
				close(started)
				<-release
			})
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var last Suggestion
	for i := 0; i < 2*len(tasks); i++ {
		if last, err = eng.Suggest(-1); err != nil {
			t.Fatal(err)
		}
		observeAnalytical(t, eng, tasks, last)
	}

	giveUp := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		if _, err := eng.SuggestContext(ctx, -1); !errors.Is(err, ErrNonePending) {
			t.Errorf("suggest whose context ended during the fit: %v, want ErrNonePending", err)
		}
	}
	watchdog(t, "calls made while a fit is in flight", func() {
		giveUp() // starts the generation, parks behind it, gives up
		<-started
		if err := eng.Observe(last.ID, []float64{1}); err != nil {
			t.Errorf("repeated report during the fit: %v", err)
		}
		if err := eng.Observe(1<<40, []float64{1}); !errors.Is(err, ErrUnknownSuggestion) {
			t.Errorf("report of a never-issued ID during the fit: %v", err)
		}
		if _, err := eng.Fail(last.ID, nil); !errors.Is(err, ErrUnknownSuggestion) {
			t.Errorf("fail of a committed ID during the fit: %v", err)
		}
		if ph := eng.Phase(); ph != "init" {
			t.Errorf("phase during the first fit = %q, want init", ph)
		}
		if eng.Done() {
			t.Error("done during the first fit")
		}
		if err := eng.Err(); err != nil {
			t.Error(err)
		}
		if n := eng.Result().Stats.NumEvals; n != 2*len(tasks) {
			t.Errorf("NumEvals during the fit = %d, want %d", n, 2*len(tasks))
		}
		giveUp()
	})
	close(release)
	eng.Quiesce()
	sg, err := eng.Suggest(-1)
	if err != nil || sg.Phase != "search" {
		t.Fatalf("ask after the abandoned generation finished: %+v, %v; want its search batch", sg, err)
	}
	if n := fits.Load(); n != 1 {
		t.Errorf("%d fits, want the 1 the first asker started", n)
	}
	driveEngine(t, eng, tasks)
	eng.Quiesce()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestParkedAskerStartsNextGeneration: generation is lazy and only an asker
// starts one (TestSyncSuggestersShareOneGeneration pins that a batch nobody
// asks past costs no fit), so with one asker parked on a filled slot and
// nobody else asking, the report that completes the batch must wake that
// asker, and the fit that follows is the one it started.
func TestParkedAskerStartsNextGeneration(t *testing.T) {
	inner, err := surrogate.New("")
	if err != nil {
		t.Fatal(err)
	}
	tasks := [][]float64{{0}, {1.5}}
	var fits atomic.Int64
	eng, err := NewEngine(analyticalProblem(), tasks, Options{
		EpsTot: 4, Seed: 7, Workers: 1,
		fitterOverride: countingFitter{Fitter: inner, fits: &fits},
	})
	if err != nil {
		t.Fatal(err)
	}
	suggs, err := eng.SuggestAll()
	if err != nil || len(suggs) != 4 {
		t.Fatalf("init batch: %d suggestions, %v", len(suggs), err)
	}
	for _, sg := range suggs[:3] {
		observeAnalytical(t, eng, tasks, sg)
	}
	out := parkAsker(t, context.Background(), eng, suggs[0].Task)
	if n := fits.Load(); n != 0 {
		t.Fatalf("%d fits with the batch incomplete, want 0", n)
	}
	observeAnalytical(t, eng, tasks, suggs[3])
	a := awaitAnswer(t, out)
	if a.err != nil || a.sg.Phase != "search" || a.sg.Task != suggs[0].Task {
		t.Fatalf("woken asker got %+v, %v; want a search suggestion for task %d", a.sg, a.err, suggs[0].Task)
	}
	if n := fits.Load(); n != 1 {
		t.Errorf("%d fits, want the 1 the woken asker started", n)
	}
	eng.Quiesce()
}

type failingCheckpoint struct{}

func (failingCheckpoint) Eval(CheckpointRecord) error { return errKilled }
func (failingCheckpoint) Lookup(_, _ []float64) ([]float64, []float64, bool) {
	return nil, nil, false
}

// TestFailAndFatalWakeParkedAskers: a parked asker is waiting for reports,
// so the two events after which none can help must release it — a job going
// dead (the batch can never complete: ErrNonePending at once, not at the
// context's end) and the engine going fatal (the fatal error).
func TestFailAndFatalWakeParkedAskers(t *testing.T) {
	tasks := [][]float64{{0}, {1.5}}
	start := func(opts Options) (*Engine, []Suggestion) {
		opts.EpsTot, opts.Seed, opts.Workers = 4, 7, 1
		eng, err := NewEngine(analyticalProblem(), tasks, opts)
		if err != nil {
			t.Fatal(err)
		}
		suggs, err := eng.SuggestAll() // canonical order: task 0's two, then task 1's
		if err != nil || len(suggs) != 4 {
			t.Fatalf("init batch: %d suggestions, %v", len(suggs), err)
		}
		return eng, suggs
	}

	t.Run("dead job", func(t *testing.T) {
		eng, suggs := start(Options{})
		observeAnalytical(t, eng, tasks, suggs[0])
		observeAnalytical(t, eng, tasks, suggs[1])
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		out := parkAsker(t, ctx, eng, 0)
		for attempt := 1; attempt <= 3; attempt++ {
			if _, err := eng.Fail(suggs[2].ID, errors.New("node died")); (err != nil) != (attempt == 3) {
				t.Fatalf("fail attempt %d: %v", attempt, err)
			}
		}
		if a := awaitAnswer(t, out); !errors.Is(a.err, ErrNonePending) || ctx.Err() != nil {
			t.Errorf("asker parked behind a dead job got %v (context: %v), want ErrNonePending with its context live", a.err, ctx.Err())
		}
		// And nobody parks behind it afterwards.
		if _, err := eng.SuggestContext(ctx, 0); !errors.Is(err, ErrNonePending) {
			t.Errorf("ask behind a dead job: %v, want ErrNonePending", err)
		}
	})

	t.Run("fatal checkpoint error", func(t *testing.T) {
		eng, suggs := start(Options{Checkpoint: failingCheckpoint{}})
		// Task 1's reports buffer behind task 0's: nothing commits yet.
		observeAnalytical(t, eng, tasks, suggs[2])
		observeAnalytical(t, eng, tasks, suggs[3])
		out := parkAsker(t, context.Background(), eng, 1)
		if err := eng.Observe(suggs[0].ID, []float64{1}); !errors.Is(err, errKilled) {
			t.Fatalf("observe over a failing checkpoint: %v", err)
		}
		if a := awaitAnswer(t, out); !errors.Is(a.err, errKilled) {
			t.Errorf("asker parked when the engine went fatal got %v, want the checkpoint error", a.err)
		}
	})
}

// TestSuggestContextCancelLeaksNothing: cancelling a parked asker returns it
// with ErrNonePending and leaves nothing behind — no goroutine, no
// generation for Quiesce to wait on, and an engine the next asker can use.
func TestSuggestContextCancelLeaksNothing(t *testing.T) {
	tasks := [][]float64{{0}, {1.5}}
	eng, err := NewEngine(analyticalProblem(), tasks, Options{EpsTot: 4, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	suggs, err := eng.SuggestAll()
	if err != nil {
		t.Fatal(err)
	}
	observeAnalytical(t, eng, tasks, suggs[0])
	observeAnalytical(t, eng, tasks, suggs[1])
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	out := parkAsker(t, ctx, eng, 0)
	cancel()
	if a := awaitAnswer(t, out); !errors.Is(a.err, ErrNonePending) {
		t.Fatalf("cancelled asker got %+v, %v; want ErrNonePending", a.sg, a.err)
	}
	watchdog(t, "Quiesce after a cancelled ask", eng.Quiesce)
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled ask, %d before it", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	observeAnalytical(t, eng, tasks, suggs[2])
	observeAnalytical(t, eng, tasks, suggs[3])
	driveEngine(t, eng, tasks)
	eng.Quiesce()
}

// TestRoundRobinSuggestNeverBlocksOnOwnJob: Suggest keeps the synchronous
// contract a single-threaded ask/tell loop depends on — it re-hands an
// outstanding job, or says ErrNonePending, but never parks on a report only
// its own caller could make.
func TestRoundRobinSuggestNeverBlocksOnOwnJob(t *testing.T) {
	tasks := [][]float64{{0}, {1.5}, {3}}
	eng, err := NewEngine(analyticalProblem(), tasks, Options{EpsTot: 4, Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	watchdog(t, "a single-threaded round-robin driver", func() {
		// Three rounds over an init batch of two per task, nothing reported:
		// two fresh jobs, then the first outstanding one again.
		var first [3]int64
		for round := 0; round < 3; round++ {
			for task := range tasks {
				sg, err := eng.Suggest(task)
				if err != nil {
					t.Errorf("round %d task %d: %v", round, task, err)
					return
				}
				if round == 0 {
					first[task] = sg.ID
				} else if (round == 2) != (sg.ID == first[task]) {
					t.Errorf("round %d task %d: got ID %d (first handed out: %d)", round, task, sg.ID, first[task])
				}
			}
		}
		// From here on the driver holds at most one job per task and moves on
		// whenever a task has nothing for it.
		held := make(map[int]Suggestion)
		for done := 0; done < len(tasks); {
			done = 0
			for task := range tasks {
				if sg, ok := held[task]; ok {
					observeAnalytical(t, eng, tasks, sg)
					delete(held, task)
				}
				sg, err := eng.Suggest(task)
				switch {
				case err == nil:
					held[task] = sg
				case errors.Is(err, ErrDone):
					done++
				case !errors.Is(err, ErrNonePending):
					t.Errorf("task %d: %v", task, err)
					return
				}
			}
		}
	})
	if n := eng.Result().Stats.NumEvals; n != 4*len(tasks) {
		t.Errorf("NumEvals = %d, want %d", n, 4*len(tasks))
	}
}

// TestRepeatedReportIsAcknowledgedOnce: a caller whose acknowledgement was
// lost reports again, and must be told the evaluation is in — without a
// second commit, a second WAL record or a second count — whether the first
// report is still buffered or already committed. IDs nobody was handed stay
// unknown.
func TestRepeatedReportIsAcknowledgedOnce(t *testing.T) {
	tasks := [][]float64{{0}, {1.5}}
	path := filepath.Join(t.TempDir(), "wal.json")
	cp, err := NewCheckpoint(path, CheckpointOptions{Problem: "analytical"})
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	eng, err := NewEngine(analyticalProblem(), tasks, Options{EpsTot: 4, Seed: 7, Workers: 1, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	var suggs []Suggestion
	for i := 0; i < 3; i++ {
		sg, err := eng.Suggest(-1)
		if err != nil {
			t.Fatal(err)
		}
		suggs = append(suggs, sg)
	}
	state := func() (evals, logged int, wal []byte) {
		wal, err := os.ReadFile(path + ".wal")
		if err != nil {
			t.Fatal(err)
		}
		return eng.Result().Stats.NumEvals, cp.Logged(), wal
	}
	for _, tc := range []struct {
		name       string
		sg         Suggestion
		wantLogged int
	}{
		{"committed", suggs[0], 1},
		{"buffered behind an unreported predecessor", suggs[2], 1},
	} {
		observeAnalytical(t, eng, tasks, tc.sg)
		evals, logged, wal := state()
		if logged != tc.wantLogged {
			t.Fatalf("%s: %d records logged after the first report, want %d", tc.name, logged, tc.wantLogged)
		}
		if err := eng.Observe(tc.sg.ID, []float64{12345}); err != nil {
			t.Errorf("%s: repeated report: %v, want it acknowledged", tc.name, err)
		}
		evals2, logged2, wal2 := state()
		if evals2 != evals || logged2 != logged || !bytes.Equal(wal, wal2) {
			t.Errorf("%s: repeated report changed the study: NumEvals %d → %d, logged %d → %d, WAL %d → %d bytes",
				tc.name, evals, evals2, logged, logged2, len(wal), len(wal2))
		}
	}
	for _, id := range []int64{-1, 3 /* installed, never handed out */, 4 /* past the batch */} {
		if err := eng.Observe(id, []float64{1}); !errors.Is(err, ErrUnknownSuggestion) {
			t.Errorf("report of never-issued ID %d: %v, want ErrUnknownSuggestion", id, err)
		}
	}
	observeAnalytical(t, eng, tasks, suggs[1])
	for _, y := range eng.Result().Tasks[suggs[2].Task].Y {
		if y[0] == 12345 {
			t.Error("the repeated report's outputs replaced the first report's")
		}
	}
}
