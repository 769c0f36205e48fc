package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/histdb"
	"repro/internal/histdb/faultio"
	"repro/internal/surrogate"
)

// evalKey identifies one evaluation by the bits of its task and
// configuration (the tuner never evaluates the same pair twice).
func evalKey(task, x []float64) string {
	return fmt.Sprintf("%x|%x", math.Float64bits(task[0]), math.Float64bits(x[0]))
}

// reverseOrderProblem is the analytical problem with every evaluation gated
// on its canonical successor in the same batch: the last suggestion of a
// batch finishes first and the first one last, the worst case for anything
// that commits in completion order. order is the canonical evaluation
// sequence of the run (from a Workers=1 run); the init batch holds the
// first nInit entries and every later batch one per task.
func reverseOrderProblem(order []string, nInit, perBatch int) *Problem {
	index := make(map[string]int, len(order))
	finished := make([]chan struct{}, len(order))
	for i, k := range order {
		index[k] = i
		finished[i] = make(chan struct{})
	}
	batchOf := func(i int) int {
		if i < nInit {
			return 0
		}
		return 1 + (i-nInit)/perBatch
	}
	p := analyticalProblem()
	inner := p.Objective
	p.Objective = func(task, x []float64) ([]float64, error) {
		i := index[evalKey(task, x)]
		if i+1 < len(order) && batchOf(i+1) == batchOf(i) {
			<-finished[i+1]
		}
		defer close(finished[i])
		return inner(task, x)
	}
	return p
}

// TestRunCommitOrderIndependentOfCompletionOrder pins the batch driver's
// one ordered-commit mechanism: Run reports observations straight from its
// evaluation workers, and the engine's prefix commit alone keeps the
// history and the write-ahead log in canonical order. With evaluations
// finishing in reverse canonical order at Workers=8 the WAL must be
// byte-identical to the Workers=1 run's, and a log cut mid-batch by an
// injected write failure must hold a strict prefix of it.
func TestRunCommitOrderIndependentOfCompletionOrder(t *testing.T) {
	tasks := [][]float64{{0}, {1.5}}
	const epsTot = 8
	nInit := len(tasks) * epsTot / 2
	clock := func() time.Time { return time.Unix(1700000000, 0).UTC() }
	run := func(p *Problem, workers int, wrap func(histdb.File) histdb.File) (*Result, []byte, error) {
		path := filepath.Join(t.TempDir(), "wal.json")
		wal, err := histdb.OpenWAL(path, histdb.WALOptions{Clock: clock, WrapFile: wrap})
		if err != nil {
			t.Fatal(err)
		}
		cp := &Checkpointer{wal: wal, problem: "analytical"}
		res, runErr := Run(p, tasks, Options{EpsTot: epsTot, Seed: 42, Workers: workers, Checkpoint: cp, Clock: clock})
		_ = cp.Close() // a poisoned log reports its injected failure again here
		data, err := os.ReadFile(path + ".wal")
		if err != nil {
			t.Fatal(err)
		}
		return res, data, runErr
	}

	var mu sync.Mutex
	var order []string
	serial := analyticalProblem()
	inner := serial.Objective
	serial.Objective = func(task, x []float64) ([]float64, error) {
		mu.Lock()
		order = append(order, evalKey(task, x))
		mu.Unlock()
		return inner(task, x)
	}
	want, wantWAL, err := run(serial, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(tasks)*epsTot {
		t.Fatalf("serial run made %d evaluations, want %d", len(order), len(tasks)*epsTot)
	}

	got, gotWAL, err := run(reverseOrderProblem(order, nInit, len(tasks)), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireBitwiseEqualHistories(t, "reverse completion order", want, got)
	if !bytes.Equal(wantWAL, gotWAL) {
		t.Errorf("WAL bytes differ: Workers=1 %d bytes, reversed Workers=8 %d bytes", len(wantWAL), len(gotWAL))
	}

	// Kill the log in the middle of the init batch's fourth record: the
	// first three records are whole on disk, the fourth is torn.
	lines := bytes.SplitAfter(wantWAL, []byte("\n"))
	budget := int64(len(lines[1]) + len(lines[2]) + len(lines[3]) + len(lines[4])/2)
	inj := faultio.NewInjector(budget)
	_, cutWAL, err := run(reverseOrderProblem(order, nInit, len(tasks)), 8, inj.Wrap)
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("run over a failing log returned %v, want the injected failure", err)
	}
	if len(cutWAL) >= len(wantWAL) || !bytes.HasPrefix(wantWAL, cutWAL) {
		t.Errorf("killed run's log (%d bytes) is not a strict prefix of the uninterrupted log (%d bytes)", len(cutWAL), len(wantWAL))
	}
	if whole := bytes.Count(cutWAL, []byte("\n")) - 1; whole != 3 {
		t.Errorf("killed run's log holds %d whole records, want 3", whole)
	}
}

// TestCheckpointSyncFailureIsFatal: a checkpoint whose fsync fails (the disk
// takes the record's bytes but cannot make them durable) fails the Observe
// whose commit wrote the record and turns the engine fatal, so no later
// report is acknowledged over a log that may not hold the earlier one.
func TestCheckpointSyncFailureIsFatal(t *testing.T) {
	inj := faultio.NewSyncFailer()
	wal, err := histdb.OpenWAL(filepath.Join(t.TempDir(), "wal.json"), histdb.WALOptions{WrapFile: inj.Wrap})
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpointer{wal: wal, problem: "analytical"}
	defer cp.Close()
	tasks := [][]float64{{0}, {1}}
	eng, err := NewEngine(analyticalProblem(), tasks, Options{EpsTot: 4, Seed: 3, Workers: 1, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	var suggs [2]Suggestion
	for k := range suggs {
		if suggs[k], err = eng.Suggest(-1); err != nil {
			t.Fatal(err)
		}
	}
	for k, sg := range suggs {
		err := eng.Observe(sg.ID, []float64{paperObjective(tasks[sg.Task][0], sg.X[0])})
		if !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("report %d over a failing fsync returned %v, want the injected failure", k, err)
		}
	}
	if err := eng.Err(); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("engine error %v, want the injected failure", err)
	}
	if _, err := eng.Suggest(-1); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("suggest on a fatal engine returned %v, want the injected failure", err)
	}
	if n := cp.Logged(); n != 0 {
		t.Fatalf("checkpoint counts %d evaluations, want 0", n)
	}
}

// TestSaveModelFailureCountsNoRecord: a model snapshot the log refuses is
// not a record, so Logged — the WAL's records less its model records — is
// unmoved by it: 0 on a fresh log, not −1.
func TestSaveModelFailureCountsNoRecord(t *testing.T) {
	inj := faultio.NewInjector(0)
	wal, err := histdb.OpenWAL(filepath.Join(t.TempDir(), "wal.json"), histdb.WALOptions{WrapFile: inj.Wrap})
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpointer{wal: wal, problem: "analytical"}
	defer cp.Close()
	if err := cp.SaveModel(ModelSnapshot{Kind: "lcm", Data: []byte(`{}`)}); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("SaveModel over a failing log returned %v, want the injected failure", err)
	}
	if n := cp.Logged(); n != 0 {
		t.Fatalf("checkpoint counts %d evaluations after a refused model record, want 0", n)
	}
}

// countingFitter counts fits and, when hold is set, runs it at the start of
// each one so a test can act while a generation is verifiably in flight.
type countingFitter struct {
	surrogate.Fitter
	fits *atomic.Int64
	hold func()
}

func (f countingFitter) Fit(data *surrogate.Dataset, opts surrogate.FitOptions) (surrogate.Model, error) {
	f.fits.Add(1)
	if f.hold != nil {
		f.hold()
	}
	return f.Fitter.Fit(data, opts)
}

// TestSyncSuggestersShareOneGeneration pins the one generation path: the
// first Suggest that finds the batch exhausted starts
// the background generator, every concurrent Suggest parks behind it, and
// all of them wake on the one batch it installs — distinct suggestions, a
// single fit, and nothing left running for Quiesce to wait on.
func TestSyncSuggestersShareOneGeneration(t *testing.T) {
	inner, err := surrogate.New("")
	if err != nil {
		t.Fatal(err)
	}
	tasks := [][]float64{{0}, {1}, {2}, {3}}
	var fits atomic.Int64
	started, release := make(chan struct{}), make(chan struct{})
	eng, err := NewEngine(analyticalProblem(), tasks, Options{
		EpsTot: 4, Seed: 11, Workers: 2,
		fitterOverride: countingFitter{Fitter: inner, fits: &fits, hold: func() {
			started <- struct{}{}
			<-release
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Commit the init batch. Generation is lazy: the last Observe starts nothing.
	for i := 0; i < len(tasks)*2; i++ {
		sg, err := eng.Suggest(-1)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Observe(sg.ID, []float64{paperObjective(tasks[sg.Task][0], sg.X[0])}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Quiesce()
	if n := fits.Load(); n != 0 {
		t.Fatalf("%d fits before anyone asked for the next batch, want 0", n)
	}

	// One asker per suggestion of the coming batch, all in flight while the
	// fit is held.
	suggs := make([]Suggestion, len(tasks))
	errs := make([]error, len(tasks))
	asking := make(chan struct{}, len(tasks))
	var wg sync.WaitGroup
	for k := range suggs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			asking <- struct{}{}
			suggs[k], errs[k] = eng.Suggest(-1)
		}(k)
	}
	<-started
	for range suggs {
		<-asking
	}
	close(release)
	wg.Wait()

	seen := make(map[int64]bool)
	for k, sg := range suggs {
		if errs[k] != nil {
			t.Fatalf("asker %d: %v", k, errs[k])
		}
		if sg.Phase != "search" || seen[sg.ID] {
			t.Fatalf("asker %d got %+v; want a fresh search suggestion (seen %v)", k, sg, seen)
		}
		seen[sg.ID] = true
	}
	for _, sg := range suggs {
		if err := eng.Observe(sg.ID, []float64{paperObjective(tasks[sg.Task][0], sg.X[0])}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Quiesce()
	if n := fits.Load(); n != 1 {
		t.Errorf("%d fits for one generation shared by %d askers, want 1", n, len(tasks))
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}
